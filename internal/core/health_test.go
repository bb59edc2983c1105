package core

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/engine"
)

func TestHealthSnapshotFields(t *testing.T) {
	tc := TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	rt := New(Config{Workers: 2, Tiering: &tc, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	registerSum(t, rt, "idle")
	for i := 0; i < 4; i++ {
		invokeSum(t, rt, "sum", []byte{byte(i)})
	}
	h := rt.Health()
	if h.Workers != 2 {
		t.Errorf("workers = %d, want 2", h.Workers)
	}
	if h.MaxInflight <= 0 {
		t.Errorf("max_inflight = %d, want > 0 with admission on", h.MaxInflight)
	}
	if h.Draining {
		t.Error("draining on a live runtime")
	}
	mh, ok := h.Modules["sum"]
	if !ok {
		t.Fatal("modules missing sum")
	}
	if mh.EWMAServiceNanos <= 0 {
		t.Errorf("sum ewma_ns = %d, want > 0 after traffic", mh.EWMAServiceNanos)
	}
	if mh.Breaker != "closed" {
		t.Errorf("sum breaker = %q, want closed", mh.Breaker)
	}
	if mh.Tier != engine.TierLabelCheap {
		t.Errorf("sum tier = %q, want %q", mh.Tier, engine.TierLabelCheap)
	}
	// The idle module has no admission samples; the snapshot falls back to
	// the tier-epoch seed so a router still has a service estimate to score.
	if ih := h.Modules["idle"]; ih.Tier != engine.TierLabelCheap {
		t.Errorf("idle tier = %q, want %q", ih.Tier, engine.TierLabelCheap)
	}
	if err := rt.Promote("sum"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	h = rt.Health()
	if h.Promoted != 1 {
		t.Errorf("promoted = %d, want 1", h.Promoted)
	}
	if got := h.Modules["sum"].Tier; got != engine.TierLabelFull {
		t.Errorf("post-promotion tier = %q, want %q", got, engine.TierLabelFull)
	}
}

func TestHealthEndpoint(t *testing.T) {
	rt := New(Config{Workers: 1, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/__health")
	if err != nil {
		t.Fatalf("GET /__health: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var h HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if h.Workers != 1 {
		t.Errorf("workers = %d, want 1", h.Workers)
	}
	mh, ok := h.Modules["sum"]
	if !ok {
		t.Fatal("health payload missing sum")
	}
	if mh.EWMAServiceNanos <= 0 {
		t.Errorf("ewma_ns = %d, want > 0", mh.EWMAServiceNanos)
	}
}

// TestHealthLoadWithoutAdmission: a node without admission control
// publishes the pool's load — every sandbox in flight, queued ones
// included, over a dispatch window of one per worker — and the admission
// default as its estimate for modules with no samples.
func TestHealthLoadWithoutAdmission(t *testing.T) {
	rt := New(Config{Workers: 2})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	h := rt.Health()
	if want := (admission.Load{MaxInflight: 2, Workers: 2}); h.Load != want {
		t.Errorf("load = %+v, want %+v", h.Load, want)
	}
	if h.DefaultEstimateNanos != int64(admission.DefaultEstimate) {
		t.Errorf("default estimate = %v, want %v", time.Duration(h.DefaultEstimateNanos), admission.DefaultEstimate)
	}
	if mh := h.Modules["sum"]; mh.Breaker != "" || mh.EWMAServiceNanos != 0 {
		t.Errorf("sum = %+v, want no breaker and no samples", mh)
	}
}

// TestHealthWorkersUsesAdmissionHint: when the admission controller's
// capacity hint exceeds the scheduler's core count (I/O-bound functions
// whose blocked sandboxes drain concurrently on the event loop), the
// snapshot publishes the controller's drain rate, not the core count, so
// external wait estimates agree with the controller's own shed decisions.
func TestHealthWorkersUsesAdmissionHint(t *testing.T) {
	rt := New(Config{Workers: 1, Admission: &admission.Config{Workers: 8, MaxInflight: 8}})
	t.Cleanup(func() { rt.Close() })
	h := rt.Health()
	if h.Workers != 8 {
		t.Errorf("workers = %d, want admission hint 8 over core count 1", h.Workers)
	}
	if h.MaxInflight != 8 {
		t.Errorf("max_inflight = %d, want 8", h.MaxInflight)
	}
}
