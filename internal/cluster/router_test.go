package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/engine"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// newTestNode builds a runtime with ping + spin registered.
func newTestNode(t *testing.T, workers int, acfg *admission.Config) *core.Runtime {
	t.Helper()
	return newTestNodeCfg(t, core.Config{Workers: workers, Admission: acfg})
}

// newTestNodeCfg builds a runtime from cfg with ping + spin registered.
func newTestNodeCfg(t *testing.T, cfg core.Config) *core.Runtime {
	t.Helper()
	rt := core.New(cfg)
	t.Cleanup(func() { rt.Close() })
	for _, name := range []string{"ping", "spin"} {
		app, ok := apps.Get(name)
		if !ok {
			t.Fatalf("app %q not found", name)
		}
		cm, err := app.Compile(rt.EngineConfig())
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		if _, err := rt.RegisterCompiled(name, cm, "main", ""); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return rt
}

// newTestRouter builds a router with a poll interval long enough that tests
// control exactly which health snapshot the scorer sees.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

func register(t *testing.T, r *Router, cfg NodeConfig) {
	t.Helper()
	if err := r.Register(cfg); err != nil {
		t.Fatalf("Register(%s): %v", cfg.Name, err)
	}
}

func TestLocalFastPath(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 2, &admission.Config{Workers: 2})
	register(t, r, NodeConfig{Name: "edge0", Class: ClassEdge, Runtime: rt})
	out, err := r.Invoke("ping", nil)
	if err != nil || string(out) != "p" {
		t.Fatalf("Invoke(ping) = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Routed != 1 || snap.Offloads != 0 || snap.Sheds != 0 {
		t.Fatalf("stats = %+v, want 1 routed, 0 offloads/sheds", snap)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Dispatched != 1 || snap.Nodes[0].Succeeded != 1 {
		t.Fatalf("node stats = %+v", snap.Nodes)
	}
}

func TestUnknownModule(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 1, nil)
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	if _, err := r.Invoke("ghost", nil); !errors.Is(err, core.ErrNoModule) {
		t.Fatalf("Invoke(ghost) err = %v, want ErrNoModule", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 1, nil)
	if err := r.Register(NodeConfig{Name: "a"}); err == nil {
		t.Error("register without runtime succeeded")
	}
	if err := r.Register(NodeConfig{Runtime: rt}); err == nil {
		t.Error("register without name succeeded")
	}
	register(t, r, NodeConfig{Name: "a", Runtime: rt})
	if err := r.Register(NodeConfig{Name: "a", Runtime: rt}); err == nil {
		t.Error("duplicate name succeeded")
	}
}

// occupy fills node's only admission slot with a long spin and waits until
// it is dispatched, so the next admitted request faces a 500ms queue-wait
// estimate.
func occupy(t *testing.T, rt *core.Runtime) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.Invoke("spin", apps.SpinRequest(50_000_000))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Pool().Inflight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.Pool().Inflight() == 0 {
		t.Fatal("occupier never dispatched")
	}
	return &wg
}

// coldEstimate is what the test nodes charge a module with no samples.
const coldEstimate = 500 * time.Millisecond

// saturatedConfig makes a node reject any request for a module with no
// samples and a sub-500ms deadline the moment one request is in flight: one
// slot, 500ms claimed service time.
func saturatedConfig() *admission.Config {
	return &admission.Config{
		Workers:         1,
		MaxInflight:     1,
		DefaultEstimate: coldEstimate,
	}
}

// peerConfig is an unloaded peer that charges modules with no samples what
// saturatedConfig does, so it differs from a saturated node only in load and
// link: a router whose snapshot predates the saturation prefers the closer
// saturated node, which sheds, and the request offloads here.
func peerConfig(workers int) *admission.Config {
	return &admission.Config{Workers: workers, DefaultEstimate: coldEstimate}
}

// requireScoreMatchesShed checks that r charges module on its only node
// exactly what that node's admission controller sheds with: the queue wait
// the node reports as a deadline shed's Retry-After at the same load, plus
// est (less the warm bonus on a promoted tier).
func requireScoreMatchesShed(t *testing.T, r *Router, rt *core.Runtime, module string, est time.Duration) {
	t.Helper()
	n := r.nodes[0]
	n.refresh()
	got, ok := r.score(n, module)
	if !ok {
		t.Fatalf("score(%s) not placeable", module)
	}
	_, err := rt.InvokeWithDeadline(module, nil, time.Nanosecond)
	var rej *admission.Rejection
	if !errors.As(err, &rej) || rej.Reason != admission.ReasonDeadlineShed {
		t.Fatalf("node invoke under load = %v, want a deadline shed", err)
	}
	want := rej.RetryAfter + est
	if n.health.Load().Modules[module].Tier == engine.TierLabelFull {
		want -= est / 4
	}
	if got != want {
		t.Fatalf("router scores %s at %v, node sheds with wait %v + estimate %v (score %v)",
			module, got, rej.RetryAfter, est, want)
	}
}

// TestScoreMatchesNodeForColdModule: a module with no samples is charged
// the node controller's own default estimate (500ms here), not a router-side
// one, over the node's own queue wait.
func TestScoreMatchesNodeForColdModule(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 1, saturatedConfig())
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	occupy(t, rt)
	requireScoreMatchesShed(t, r, rt, "ping", coldEstimate)
}

// TestScoreMatchesNodeWithAbandonedWork: a sandbox whose request timed out
// keeps running until its quantum ends. The controller's ticket is gone but
// the pool still holds it, and the router must count it exactly as the
// controller does — once.
func TestScoreMatchesNodeWithAbandonedWork(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNodeCfg(t, core.Config{
		Workers:        1,
		Quantum:        time.Second,
		RequestTimeout: 30 * time.Millisecond,
		Admission:      &admission.Config{Workers: 1, MaxInflight: 1},
	})
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	for i := 0; i < 4; i++ {
		if _, err := rt.Invoke("ping", nil); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	if _, err := rt.Invoke("spin", apps.SpinRequest(50_000_000)); err == nil {
		t.Fatal("spin finished inside the request timeout")
	}
	if rt.Abandoned() != 1 || rt.Pool().Inflight() != 1 {
		t.Fatalf("abandoned = %d, pool inflight = %d, want a running abandoned sandbox",
			rt.Abandoned(), rt.Pool().Inflight())
	}
	snap, _ := rt.AdmissionStats()
	est := time.Duration(snap.EstimateNanos["ping"])
	if est <= 0 {
		t.Fatal("ping has no estimate after traffic")
	}
	requireScoreMatchesShed(t, r, rt, "ping", est)
}

// TestOffloadOnRejection is the tentpole behaviour: the preferred edge node
// sheds on its admission estimate, and instead of surfacing the 503 the
// router retries on the cloud peer and succeeds.
func TestOffloadOnRejection(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	cloud := newTestNode(t, 4, peerConfig(4))
	// The edge is co-located (preferred); the cloud is 2ms away.
	register(t, r, NodeConfig{Name: "edge0", Class: ClassEdge, Runtime: edge})
	register(t, r, NodeConfig{Name: "cloud0", Class: ClassCloud, Link: 2 * time.Millisecond, Runtime: cloud})

	occupy(t, edge)
	out, err := r.InvokeWithDeadline("ping", nil, 200*time.Millisecond)
	if err != nil || string(out) != "p" {
		t.Fatalf("offloaded invoke = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Offloads != 1 || snap.OffloadAttempts != 1 {
		t.Fatalf("offloads/attempts = %d/%d, want 1/1", snap.Offloads, snap.OffloadAttempts)
	}
	var edgeNS, cloudNS NodeSnapshot
	for _, ns := range snap.Nodes {
		switch ns.Name {
		case "edge0":
			edgeNS = ns
		case "cloud0":
			cloudNS = ns
		}
	}
	if edgeNS.Rejected != 1 {
		t.Errorf("edge rejected = %d, want 1", edgeNS.Rejected)
	}
	if cloudNS.Succeeded != 1 {
		t.Errorf("cloud succeeded = %d, want 1", cloudNS.Succeeded)
	}
}

// TestClusterSaturated: when every node sheds, the router answers one
// cluster-level 503 carrying the smallest Retry-After any node offered.
func TestClusterSaturated(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	occupy(t, edge)
	_, err := r.InvokeWithDeadline("ping", nil, 100*time.Millisecond)
	var rej *admission.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *admission.Rejection", err)
	}
	if rej.Status != 503 || rej.Reason != ReasonClusterSaturated {
		t.Fatalf("rejection = %+v, want 503 cluster-saturated", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("cluster-saturated rejection missing Retry-After")
	}
	if snap := r.Stats(); snap.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", snap.Sheds)
	}
}

// TestRateLimitNotOffloaded: a 429 is tenant policy, not node saturation —
// the router must not let a tenant launder traffic past its rate by
// overflowing onto a peer.
func TestRateLimitNotOffloaded(t *testing.T) {
	r := newTestRouter(t, Config{})
	limited := newTestNode(t, 1, &admission.Config{TenantRate: 0.001, TenantBurst: 1})
	spare := newTestNode(t, 1, nil)
	register(t, r, NodeConfig{Name: "edge0", Runtime: limited})
	register(t, r, NodeConfig{Name: "cloud0", Class: ClassCloud, Link: 10 * time.Millisecond, Runtime: spare})
	if _, err := r.Invoke("ping", nil); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	_, err := r.Invoke("ping", nil)
	var rej *admission.Rejection
	if !errors.As(err, &rej) || rej.Status != 429 {
		t.Fatalf("second invoke err = %v, want 429 rejection", err)
	}
	snap := r.Stats()
	for _, ns := range snap.Nodes {
		if ns.Name == "cloud0" && ns.Dispatched != 0 {
			t.Fatalf("rate-limited request offloaded to peer (dispatched=%d)", ns.Dispatched)
		}
	}
	if snap.OffloadAttempts != 0 {
		t.Fatalf("offload attempts = %d, want 0", snap.OffloadAttempts)
	}
}

// TestStickyWarmRouting: with otherwise equal nodes, the one already
// serving a module's promoted form wins placement.
func TestStickyWarmRouting(t *testing.T) {
	tcWarm := core.TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	warm := core.New(core.Config{Workers: 1, Tiering: &tcWarm})
	t.Cleanup(func() { warm.Close() })
	tcCold := core.TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	cold := core.New(core.Config{Workers: 1, Tiering: &tcCold})
	t.Cleanup(func() { cold.Close() })
	const src = `
static u8 out[1];
export i32 main() {
	out[0] = 65;
	sys_write(out, 1);
	return 0;
}
`
	for _, rt := range []*core.Runtime{warm, cold} {
		if _, err := rt.RegisterWCC("hot", src, wcc.Options{}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	if err := warm.Promote("hot"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	r := newTestRouter(t, Config{})
	register(t, r, NodeConfig{Name: "cold", Runtime: cold})
	register(t, r, NodeConfig{Name: "warm", Runtime: warm})
	for i := 0; i < 5; i++ {
		out, err := r.Invoke("hot", nil)
		if err != nil || string(out) != "A" {
			t.Fatalf("invoke %d = %q, %v", i, out, err)
		}
	}
	for _, ns := range r.Stats().Nodes {
		switch ns.Name {
		case "warm":
			if ns.Dispatched != 5 {
				t.Errorf("warm node dispatched = %d, want 5 (sticky routing)", ns.Dispatched)
			}
		case "cold":
			if ns.Dispatched != 0 {
				t.Errorf("cold node dispatched = %d, want 0", ns.Dispatched)
			}
		}
	}
}

// TestHedgedDispatch: once a request has outlived the module's recent p99
// and its first pick shed, the retry goes to two peers at once.
func TestHedgedDispatch(t *testing.T) {
	r := newTestRouter(t, Config{HedgeMinSamples: 8})
	edge := newTestNode(t, 1, saturatedConfig())
	cloudA := newTestNode(t, 2, peerConfig(2))
	cloudB := newTestNode(t, 2, peerConfig(2))
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	register(t, r, NodeConfig{Name: "cloudA", Class: ClassCloud, Link: time.Millisecond, Runtime: cloudA})
	register(t, r, NodeConfig{Name: "cloudB", Class: ClassCloud, Link: time.Millisecond, Runtime: cloudB})
	// Seed the latency window with microsecond samples so any real request
	// is already past p99 by the time its first pick rejects.
	w := r.window("ping")
	for i := 0; i < 8; i++ {
		w.Observe(time.Microsecond)
	}
	occupy(t, edge)
	out, err := r.InvokeWithDeadline("ping", nil, 200*time.Millisecond)
	if err != nil || string(out) != "p" {
		t.Fatalf("hedged invoke = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", snap.Hedges)
	}
	if snap.Offloads != 1 {
		t.Fatalf("offloads = %d, want 1", snap.Offloads)
	}
}

// TestRouterAddsNoAllocOnLocalFastPath compares the router's steady-state
// allocation count against invoking the runtime directly: the router layer
// must add zero.
func TestRouterAddsNoAllocOnLocalFastPath(t *testing.T) {
	rt := newTestNode(t, 2, &admission.Config{Workers: 2})
	r := newTestRouter(t, Config{})
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	// Warm up both paths (window creation, estimator seeding).
	for i := 0; i < 8; i++ {
		if _, err := r.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	direct := testing.AllocsPerRun(200, func() {
		if _, err := rt.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	})
	routed := testing.AllocsPerRun(200, func() {
		if _, err := r.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	})
	if routed > direct {
		t.Fatalf("router fast path allocates: %.1f allocs/op vs %.1f direct", routed, direct)
	}
}
