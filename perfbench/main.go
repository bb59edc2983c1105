// Command perfbench is the repository's benchmark. It serves one of the
// seeded workloads from the real core.Runtime TCP listener, drives it with
// a lean HTTP/1.1 client over at most two connections, validates every
// reply, and prints one JSON result as the last line of standard output:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// See README.md for the workloads and metric definitions.
//
// Usage:
//
//	perfbench -workload echo-closed -seed 1 -seconds 15 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"sledge/internal/core"
)

// setupReps is how many times a run sets the runtime up; setup_s is the
// median, and the last set-up serves the traffic.
const setupReps = 5

// warmup is the unrecorded traffic sent before each measured phase, so
// pools fill, tiers promote and the cache settles before timing.
const warmup = 2 * time.Second

// minPerSecond is the mean requests per second below which endToEnd pools
// a phase instead of taking medians over its seconds.
const minPerSecond = 200

// warmSalt derives the warm-up traffic's seed from the run's seed.
const warmSalt = 0x5eed

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 15, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		commit  = flag.String("commit", "unknown", "commit stamp")
		outDir  = flag.String("out", ".bench_build", "directory for the trace file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *commit, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, commit, outDir string) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, trace)
	}
	st := stamp(commit, name, seed, seconds, trace)
	fmt.Println("# stamp", mustJSON(st))
	w := newWorkload(name, seed)
	window := time.Duration(seconds) * time.Second
	var res *result
	var err error
	if trace == 0 {
		res, err = runEndToEnd(w, seed, window)
	} else {
		res, err = runTraced(w, seed, window, st, outDir)
	}
	if err != nil {
		return err
	}
	fmt.Println(mustJSON(res))
	return nil
}

type stampInfo struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workers    int    `json:"workers"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func stamp(commit, name string, seed int64, seconds, trace int) stampInfo {
	return stampInfo{
		Commit: commit, CPU: procField("/proc/cpuinfo", "model name"), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Workers: baseConfig().Workers,
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// server is a runtime serving on a loopback listener.
type server struct {
	rt   *core.Runtime
	ln   net.Listener
	addr string
	done chan error
}

// setUp times core.New through the workload's registrations to the
// listener accepting a connection.
func setUp(w *workload) (*server, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	rt := core.New(w.cfg)
	if err := w.register(rt); err != nil {
		rt.Close()
		return nil, 0, fmt.Errorf("register: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, 0, err
	}
	s := &server{rt: rt, ln: ln, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- rt.Serve(ln) }()
	// A dial alone can complete from the kernel's backlog before Serve
	// runs; a served health check proves the listener is accepting.
	c, err := dial(s.addr, time.Now().Add(30*time.Second))
	if err != nil {
		s.close()
		return nil, 0, err
	}
	status, _, err := c.do(healthCheck, -1)
	c.close()
	if err == nil && status != 200 {
		err = fmt.Errorf("health check: status %d", status)
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

var healthCheck = &input{head: []byte("GET /__health HTTP/1.1\r\nHost: bench\r\n")}

// close stops the runtime and waits for Serve to return. The listener is
// closed here too: Runtime.Close does not stop a Serve call that had not
// yet registered its listener.
func (s *server) close() {
	s.rt.Close()
	s.ln.Close()
	<-s.done
}

// setUpMedian sets the workload up setupReps times and keeps the last
// runtime; it returns the median set-up time in seconds.
func setUpMedian(w *workload) (*server, float64, error) {
	var secs []float64
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(w); err != nil {
			return nil, 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return s, medianF(secs), nil
}

// measure warms the server up and then drives one recorded phase. Counters
// the caller reads afterwards are quiesced.
func measure(s *server, w *workload, seed int64, window time.Duration) (*tally, error) {
	drive(s.addr, w.plan(newRand(seed^warmSalt), warmup), warmup, false)
	if !s.rt.Pool().Quiesce(30 * time.Second) {
		return nil, fmt.Errorf("warm-up did not quiesce")
	}
	t := drive(s.addr, w.plan(newRand(seed), window), window, false)
	if !s.rt.Pool().Quiesce(30 * time.Second) {
		return nil, fmt.Errorf("measured phase did not quiesce")
	}
	return t, nil
}

// endToEnd derives the latency and goodput metrics from a tally, each the
// median over the phase's seconds. The tail metric is p90, not p99: on the
// shared 2-vCPU VM this benchmark was built on, whole-process stalls of
// ~25 ms (host steal, GC mark) reached about 1% of requests, so p99 read
// how many stalls a run happened to catch; its spread between runs was
// 0.3 to 1.0 of its median. report prints the pooled p99 with its count.
//
// A one-second slice of a sparse open loop (apps-open's 40 req/s) holds
// too few requests for its own percentiles; below minPerSecond requests a
// second on average the metrics pool the whole window instead.
func endToEnd(t *tally) map[string]metric {
	if t.lat[0].n < minPerSecond*int64(len(t.win)) {
		return map[string]metric{
			"goodput_rps":    {float64(t.ok) / t.elapsed.Seconds(), "1/s"},
			"latency_p50_us": {us(t.lat[0].q(0.5)), "us"},
			"latency_p90_us": {us(t.lat[0].q(0.9)), "us"},
		}
	}
	return map[string]metric{
		"goodput_rps":    {t.perSecond(func(s second) float64 { return float64(s.ok) }) / t.winLen.Seconds(), "1/s"},
		"latency_p50_us": {us(int64(t.perSecond(func(s second) float64 { return float64(s.lat.q(0.5)) }))), "us"},
		"latency_p90_us": {us(int64(t.perSecond(func(s second) float64 { return float64(s.lat.q(0.9)) }))), "us"},
	}
}

func runEndToEnd(w *workload, seed int64, window time.Duration) (*result, error) {
	s, setupS, err := setUpMedian(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	t, err := measure(s, w, seed, window)
	if err != nil {
		return nil, err
	}
	m := endToEnd(t)
	m["setup_s"] = metric{setupS, "s"}
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	fmt.Printf("# calibrated fuel quantum %d gas\n", s.rt.Pool().FuelQuantum())
	report(w, t, m)
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: m}, nil
}

// report prints the human-readable summary: every metric with its unit,
// the sample counts, and the failure breakdown.
func report(w *workload, t *tally, m map[string]metric) {
	for c, class := range []string{"latency", "batch"} {
		if c == 1 && !w.batchClass {
			break
		}
		h := t.lat[c]
		fmt.Printf("# %s n=%d p50 %.1f p90 %.1f p99 %.1f us\n", class, h.n, us(h.q(.5)), us(h.q(.9)), us(h.q(.99)))
	}
	if len(t.steal) > 0 {
		st := slices.Clone(t.steal)
		slices.Sort(st)
		fmt.Printf("# host CPU steal per second: min %.1f%% median %.1f%% max %.1f%%; metrics use the quietest %d of %d seconds\n",
			100*st[0], 100*st[len(st)/2], 100*st[len(st)-1], max(1, len(st)/3), len(st))
	}
	if t.late.n > 0 {
		fmt.Printf("# late n=%d p50 %.1f p99 %.1f us\n", t.late.n, us(t.late.q(.5)), us(t.late.q(.99)))
	}
	fmt.Printf("# fail_share %.6f share (wrong=%d rejected=%d errors=%d drops=%d of %d)\n",
		share(float64(t.failed()), float64(t.attempted)), t.wrong, t.rejected, t.errs, t.drops, t.attempted)
	if t.firstErr != nil {
		fmt.Printf("# first failure: %v\n", t.firstErr)
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("# %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
