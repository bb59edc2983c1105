package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBasic(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	defer srv.Close()

	res, err := Run(Options{
		URL:         srv.URL,
		Concurrency: 4,
		Requests:    100,
		Body:        []byte("ping"),
		Validate: func(b []byte) error {
			if string(b) != "ping" {
				return fmt.Errorf("bad echo %q", b)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if served.Load() != 100 {
		t.Errorf("server saw %d requests", served.Load())
	}
	if res.Errors != 0 || res.Summary.Count != 100 {
		t.Errorf("result %+v", res.Summary)
	}
	if res.ThroughputRPS <= 0 {
		t.Error("no throughput computed")
	}
	if res.BytesIn != 400 {
		t.Errorf("BytesIn = %d", res.BytesIn)
	}
}

func TestRunPerRequestBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	defer srv.Close()
	res, err := Run(Options{
		URL:      srv.URL,
		Requests: 10,
		BodyFn:   func(i int) []byte { return []byte{byte(i)} },
	})
	if err != nil || res.Summary.Count != 10 {
		t.Fatalf("Run: %v %+v", err, res.Summary)
	}
}

func TestRunCountsServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	res, err := Run(Options{URL: srv.URL, Requests: 5, Timeout: 2 * time.Second})
	if err == nil {
		t.Error("expected error when every request fails")
	}
	if res.Errors != 5 {
		t.Errorf("Errors = %d", res.Errors)
	}
}

func TestRunUnreachable(t *testing.T) {
	res, err := Run(Options{URL: "http://127.0.0.1:1/none", Requests: 2, Timeout: time.Second})
	if err == nil {
		t.Error("expected connection error")
	}
	if res.Errors != 2 {
		t.Errorf("Errors = %d", res.Errors)
	}
}

// TestOpenLoopPacing: the open-loop issuer follows the schedule, not the
// server, and separates shed responses from errors.
func TestOpenLoopPacing(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if n%4 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	res, err := Run(Options{
		URL:      srv.URL,
		Rate:     200,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 200 rps for 0.5 s ≈ 100 issue ticks; allow slop for slow CI.
	if res.Issued < 50 || res.Issued > 110 {
		t.Errorf("Issued = %d, want ~100", res.Issued)
	}
	if res.Errors != 0 {
		t.Errorf("Errors = %d (shed responses must not count as errors)", res.Errors)
	}
	if res.Rejected == 0 || res.StatusCounts[503] != res.Rejected {
		t.Errorf("Rejected = %d, StatusCounts = %v", res.Rejected, res.StatusCounts)
	}
	if res.StatusCounts[200] != res.Summary.Count {
		t.Errorf("latencies (%d) must cover exactly the 200s (%d)",
			res.Summary.Count, res.StatusCounts[200])
	}
	if res.GoodputRPS <= 0 || res.OfferedRPS <= res.GoodputRPS {
		t.Errorf("GoodputRPS = %.1f, OfferedRPS = %.1f", res.GoodputRPS, res.OfferedRPS)
	}
}

// TestOpenLoopOutstandingCap: when the server stalls, issue ticks beyond
// MaxOutstanding are dropped instead of piling up goroutines.
func TestOpenLoopOutstandingCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Second)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	res, err := Run(Options{
		URL:            srv.URL,
		Rate:           1000,
		Duration:       300 * time.Millisecond,
		MaxOutstanding: 4,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Issued > 4 {
		t.Errorf("Issued = %d, want <= MaxOutstanding", res.Issued)
	}
	if res.Dropped == 0 {
		t.Error("expected dropped issue ticks while the window is full")
	}
}

// TestOpenLoopRequestBound: Requests caps issued work in open-loop mode.
func TestOpenLoopRequestBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	res, err := Run(Options{
		URL:      srv.URL,
		Rate:     10000,
		Duration: 5 * time.Second,
		Requests: 25,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Issued+res.Dropped != 25 {
		t.Errorf("Issued+Dropped = %d, want 25", res.Issued+res.Dropped)
	}
	if res.Elapsed > 2*time.Second {
		t.Errorf("run did not stop at the request bound (%v)", res.Elapsed)
	}
}

func TestMultiTargetWeights(t *testing.T) {
	counts := make([]atomic.Int64, 3)
	servers := make([]*httptest.Server, 3)
	targets := make([]Target, 3)
	weights := []int{3, 2, 1}
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counts[i].Add(1)
			io.Copy(io.Discard, r.Body)
			w.Write([]byte("ok"))
		}))
		defer servers[i].Close()
		targets[i] = Target{URL: servers[i].URL, Weight: weights[i]}
	}
	// 60 requests over one 6-slot WRR cycle: exactly 30/20/10.
	res, err := Run(Options{Targets: targets, Concurrency: 4, Requests: 60})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Summary.Count != 60 || res.Errors != 0 {
		t.Fatalf("result = %+v", res.Summary)
	}
	for i, want := range []int64{30, 20, 10} {
		if got := counts[i].Load(); got != want {
			t.Errorf("target %d served %d, want %d", i, got, want)
		}
	}
	if len(res.TargetCounts) != 3 {
		t.Fatalf("TargetCounts = %v, want 3 entries", res.TargetCounts)
	}
	for i, want := range []int{30, 20, 10} {
		if got := res.TargetCounts[servers[i].URL]; got != want {
			t.Errorf("TargetCounts[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestWRRScheduleInterleaves(t *testing.T) {
	sched := wrrSchedule([]Target{{URL: "a", Weight: 3}, {URL: "b", Weight: 1}})
	if len(sched) != 4 {
		t.Fatalf("schedule length = %d, want 4", len(sched))
	}
	counts := map[string]int{}
	for _, u := range sched {
		counts[u]++
	}
	if counts["a"] != 3 || counts["b"] != 1 {
		t.Fatalf("schedule = %v", sched)
	}
	// Smoothness: "a" must not occupy three consecutive slots with "b" at
	// an end — the b slot lands mid-cycle.
	if sched[0] == "b" || sched[3] == "b" {
		t.Errorf("schedule %v is not interleaved", sched)
	}
}

func TestMultiTargetOpenLoop(t *testing.T) {
	var a, b atomic.Int64
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.Add(1)
		w.Write([]byte("ok"))
	}))
	defer srvA.Close()
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.Add(1)
		w.Write([]byte("ok"))
	}))
	defer srvB.Close()
	res, err := Run(Options{
		Targets:  []Target{{URL: srvA.URL, Weight: 1}, {URL: srvB.URL, Weight: 1}},
		Rate:     400,
		Duration: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Issued == 0 {
		t.Fatal("open loop issued nothing")
	}
	if a.Load() == 0 || b.Load() == 0 {
		t.Fatalf("load not spread: a=%d b=%d", a.Load(), b.Load())
	}
}

func TestRunNoTarget(t *testing.T) {
	if _, err := Run(Options{Requests: 1}); err == nil {
		t.Fatal("Run with no URL and no targets succeeded")
	}
}

func TestPipelineURL(t *testing.T) {
	for _, tc := range []struct{ base, name, want string }{
		{"http://h:1", "chain", "http://h:1/p/chain"},
		{"http://h:1/", "chain", "http://h:1/p/chain"},
	} {
		if got := PipelineURL(tc.base, tc.name); got != tc.want {
			t.Errorf("PipelineURL(%q, %q) = %q, want %q", tc.base, tc.name, got, tc.want)
		}
	}
}

// TestPipelineTargetMode: a PipelineURL target (single or weighted) hits
// the chain's /p/<name> route, and the summary reports the end-to-end chain
// latency the server took to reply.
func TestPipelineTargetMode(t *testing.T) {
	var chainHits atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/p/imgchain" {
			http.NotFound(w, r)
			return
		}
		chainHits.Add(1)
		w.Write([]byte("ok"))
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	srv2 := httptest.NewServer(handler)
	defer srv2.Close()

	res, err := Run(Options{
		URL:      PipelineURL(srv.URL, "imgchain"),
		Requests: 20,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 || res.Summary.Count != 20 {
		t.Fatalf("result %+v errors=%d", res.Summary, res.Errors)
	}
	if chainHits.Load() != 20 {
		t.Errorf("chain route saw %d requests, want 20", chainHits.Load())
	}
	if res.Summary.P50 <= 0 {
		t.Error("no end-to-end chain latency recorded")
	}

	// Weighted targets address the chain the same way.
	res, err = Run(Options{
		Targets:  []Target{{URL: PipelineURL(srv.URL, "imgchain")}, {URL: PipelineURL(srv2.URL, "imgchain")}},
		Requests: 10,
	})
	if err != nil || res.Errors != 0 || res.Summary.Count != 10 {
		t.Fatalf("multi-target pipeline run: %v %+v errors=%d", err, res.Summary, res.Errors)
	}
}
