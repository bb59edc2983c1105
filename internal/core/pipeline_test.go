package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

func registerChain(t *testing.T, rt *Runtime) *Pipeline {
	t.Helper()
	for _, name := range apps.ChainStages {
		registerApp(t, rt, name)
	}
	p, err := rt.RegisterPipeline("imgchain", apps.ChainStages...)
	if err != nil {
		t.Fatalf("RegisterPipeline: %v", err)
	}
	return p
}

// TestPipelineMatchesSequential is the composition identity check: the
// co-located zero-copy chain produces the same bytes and burns the same gas
// as invoking the stages one at a time through the standard path.
func TestPipelineMatchesSequential(t *testing.T) {
	rt := newTestRuntime(t)
	p := registerChain(t, rt)

	req := apps.ChainRequest(64, 64)

	// Sequential baseline: each stage a standalone invoke.
	gasBefore := stageGas(t, rt)
	seq := req
	for _, name := range apps.ChainStages {
		out, err := rt.Invoke(name, seq)
		if err != nil {
			t.Fatalf("sequential %s: %v", name, err)
		}
		seq = out
	}
	seqGas := stageGasDelta(t, rt, gasBefore)

	gasBefore = stageGas(t, rt)
	piped, err := rt.Invoke(PipelinePrefix+"imgchain", req)
	if err != nil {
		t.Fatalf("Invoke(p/imgchain): %v", err)
	}
	pipeGas := stageGasDelta(t, rt, gasBefore)

	if !bytes.Equal(piped, seq) {
		t.Errorf("pipeline (%d bytes) != sequential (%d bytes)", len(piped), len(seq))
	}
	if want := apps.ChainNative(req); !bytes.Equal(piped, want) {
		t.Errorf("pipeline (%d bytes) != native chain (%d bytes)", len(piped), len(want))
	}
	for _, name := range apps.ChainStages {
		if seqGas[name] != pipeGas[name] {
			t.Errorf("gas for %s: sequential %d, pipeline %d", name, seqGas[name], pipeGas[name])
		}
	}

	st := p.Stats()
	if st.Invocations != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v, want 1 invocation 0 failures", st)
	}
	// resize hands off via sys_write (buffered), rgb2gray declares with
	// sys_output (fast); the final stage's result is the reply, not a
	// handoff.
	if st.FastHandoffs != 1 || st.BufferedHandoffs != 1 {
		t.Errorf("handoffs = %d fast / %d buffered, want 1/1", st.FastHandoffs, st.BufferedHandoffs)
	}
	if st.Gas == 0 {
		t.Error("pipeline gas not accounted")
	}

	// The same chain is reachable through the Invoke demux.
	demuxed, err := rt.Invoke(PipelinePrefix+"imgchain", req)
	if err != nil || !bytes.Equal(demuxed, piped) {
		t.Errorf("Invoke(p/imgchain): %d bytes, %v", len(demuxed), err)
	}

	// A one-stage chain over a module is that module's direct invoke: the
	// same bytes and the same gas.
	first := apps.ChainStages[0]
	if _, err := rt.RegisterPipeline("solo", first); err != nil {
		t.Fatalf("RegisterPipeline(solo): %v", err)
	}
	solo := PipelinePrefix + "solo"
	gasBefore = stageGas(t, rt)
	direct, err := rt.Invoke(first, req)
	if err != nil {
		t.Fatalf("Invoke(%s): %v", first, err)
	}
	directGas := stageGasDelta(t, rt, gasBefore)[first]
	gasBefore = stageGas(t, rt)
	soloOut, err := rt.Invoke(solo, req)
	if err != nil {
		t.Fatalf("Invoke(%s): %v", solo, err)
	}
	soloGas := stageGasDelta(t, rt, gasBefore)[first]
	if !bytes.Equal(soloOut, direct) || soloGas != directGas {
		t.Errorf("one-stage chain: %d bytes gas %d, direct %s: %d bytes gas %d",
			len(soloOut), soloGas, first, len(direct), directGas)
	}
}

func stageGas(t *testing.T, rt *Runtime) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, name := range apps.ChainStages {
		m, ok := rt.Lookup(name)
		if !ok {
			t.Fatalf("module %s missing", name)
		}
		out[name] = m.Stats().Gas
	}
	return out
}

func stageGasDelta(t *testing.T, rt *Runtime, before map[string]uint64) map[string]uint64 {
	t.Helper()
	after := stageGas(t, rt)
	for name := range after {
		after[name] -= before[name]
	}
	return after
}

func TestPipelineRegistration(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "ping")

	if _, err := rt.RegisterPipeline("", "ping"); err == nil {
		t.Error("registered unnamed pipeline")
	}
	if _, err := rt.RegisterPipeline("empty"); !errors.Is(err, ErrEmptyPipeline) {
		t.Errorf("empty stages: %v", err)
	}
	if _, err := rt.RegisterPipeline("ghostly", "ping", "ghost"); !errors.Is(err, ErrNoModule) {
		t.Errorf("unknown stage: %v", err)
	}
	if _, err := rt.RegisterPipeline("ok", "ping", "ping"); err != nil {
		t.Fatalf("repeated stages: %v", err)
	}
	if _, err := rt.RegisterPipeline("ok", "ping"); !errors.Is(err, ErrDuplicatePipeline) {
		t.Errorf("duplicate pipeline: %v", err)
	}
	if _, ok := rt.LookupPipeline("ok"); !ok {
		t.Error("LookupPipeline(ok) missed")
	}
	if names := rt.Pipelines(); len(names) != 1 || names[0] != "ok" {
		t.Errorf("Pipelines() = %v", names)
	}
	if _, err := rt.Invoke(PipelinePrefix+"ghost", nil); !errors.Is(err, ErrNoPipeline) {
		t.Errorf("unknown pipeline invoke: %v", err)
	}
	// The pipeline namespace is fenced off from modules.
	if _, err := rt.RegisterWCC("p/sneaky", `export i32 main() { return 0; }`, wcc.Options{}); err == nil {
		t.Error("registered a module inside the reserved p/ namespace")
	}
}

// TestPipelineDeadlineRemainingBudget is the satellite regression test for
// chain deadline accounting: a later stage must be shed against the budget
// REMAINING after earlier stages ran, not against the full request deadline.
// Stage 0 burns well past the deadline; stage 1's estimate comfortably fits
// the full deadline, so the old full-deadline comparison would have started
// it. The fix sheds it.
func TestPipelineDeadlineRemainingBudget(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "spin")
	registerApp(t, rt, "ping")
	if _, err := rt.RegisterPipeline("burnchain", "spin", "ping"); err != nil {
		t.Fatalf("RegisterPipeline: %v", err)
	}

	// Give ping a seed estimate (its epoch mean) so the shed decision has a
	// live number that is far below the deadline.
	if _, err := rt.Invoke("ping", nil); err != nil {
		t.Fatalf("warm ping: %v", err)
	}
	pingM, _ := rt.Lookup("ping")
	pingBefore := pingM.Stats().Invocations

	// 5M iterations: comfortably beyond the 2ms deadline on any hardware.
	req := apps.SpinRequest(5_000_000)
	deadline := 2 * time.Millisecond
	if est := rt.stageEstimate(pingM); est <= 0 || est >= deadline {
		t.Fatalf("ping estimate %v not inside (0, %v); test premise broken", est, deadline)
	}

	_, err := rt.InvokeWithDeadline(PipelinePrefix+"burnchain", req, deadline)
	if err == nil {
		t.Fatal("chain met an unmeetable deadline")
	}
	var rej *admission.Rejection
	if !errors.As(err, &rej) || rej.Reason != admission.ReasonDeadlineShed || rej.Status != 503 {
		t.Fatalf("err = %v, want a 503 deadline-shed rejection", err)
	}
	if rej.RetryAfter <= 0 {
		t.Error("shed carries no Retry-After hint")
	}
	if got := pingM.Stats().Invocations; got != pingBefore {
		t.Errorf("shed stage still ran: ping invocations %d -> %d", pingBefore, got)
	}
	p, _ := rt.LookupPipeline("burnchain")
	if st := p.Stats(); st.Sheds != 1 || st.Failures != 0 || st.Invocations != 0 {
		t.Errorf("stats = %+v, want exactly 1 shed", st)
	}

	// Same chain, no deadline: completes, and the second stage runs.
	if _, err := rt.Invoke(PipelinePrefix+"burnchain", apps.SpinRequest(1000)); err != nil {
		t.Fatalf("undeadlined chain: %v", err)
	}
	if got := pingM.Stats().Invocations; got != pingBefore+1 {
		t.Errorf("ping invocations = %d, want %d", got, pingBefore+1)
	}
}

// TestPipelineTimeout: one RequestTimeout covers the whole chain. The
// middle stage spins past it, so the chain fails with a timeout, that stage
// is abandoned to the workers, and every instance the chain held — the
// completed producer and the prefetched last stage — returns to its pool.
// The runtime then serves the next chain normally.
func TestPipelineTimeout(t *testing.T) {
	rt := New(Config{Workers: 2, RequestTimeout: 20 * time.Millisecond})
	t.Cleanup(func() { rt.Close() })
	stages := []string{"echo", "spin", "ping"}
	for _, name := range stages {
		registerApp(t, rt, name)
	}
	p, err := rt.RegisterPipeline("slowchain", stages...)
	if err != nil {
		t.Fatalf("RegisterPipeline: %v", err)
	}
	chain := PipelinePrefix + "slowchain"
	if _, err := rt.Invoke(chain, apps.SpinRequest(1000)); err != nil {
		t.Fatalf("warm chain: %v", err)
	}
	// Idle instances of the held producer (echo) and the prefetched last
	// stage (ping). The abandoned spin instance is reaped mid-run, so the
	// engine drops it rather than pooling it.
	pooled := func() [2]int {
		echo, _ := rt.Lookup("echo")
		ping, _ := rt.Lookup("ping")
		return [2]int{echo.Compiled().PooledInstances(), ping.Compiled().PooledInstances()}
	}
	idle := pooled()

	// 50M iterations: seconds of work against a 20ms budget.
	_, err = rt.Invoke(chain, apps.SpinRequest(50_000_000))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Invoke = %v, want timeout", err)
	}
	if got := rt.Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	if st := p.Stats(); st.Failures != 1 {
		t.Errorf("stats = %+v, want 1 failure", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Pool().Inflight() != 0 || pooled() != idle {
		if time.Now().After(deadline) {
			t.Fatalf("chain leaked: inflight %d, pooled instances %v, want %v",
				rt.Pool().Inflight(), pooled(), idle)
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := rt.Invoke(chain, apps.SpinRequest(1000)); err != nil {
		t.Errorf("chain after timeout: %v", err)
	}
}

// TestPipelineWholeChainAdmission: with the admission controller enabled, a
// pipeline invocation takes ONE ticket under "p/<name>" — stages are never
// admitted individually.
func TestPipelineWholeChainAdmission(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{})
	registerChain(t, rt)

	req := apps.ChainRequest(32, 32)
	out, err := rt.Invoke(PipelinePrefix+"imgchain", req)
	if err != nil {
		t.Fatalf("Invoke(p/imgchain): %v", err)
	}
	if want := apps.ChainNative(req); !bytes.Equal(out, want) {
		t.Error("admitted chain reply diverges from native chain")
	}
	snap, ok := rt.AdmissionStats()
	if !ok || snap.Admitted != 1 {
		t.Fatalf("admission stats = %+v ok=%v, want exactly 1 admitted for a 3-stage chain", snap, ok)
	}
}

// TestPipelineHandoffCap: a stage declaring more than MaxHandoffBytes traps
// with ErrHandoffTooLarge, surfaced as 413 over HTTP.
func TestPipelineHandoffCap(t *testing.T) {
	rt := New(Config{Workers: 2, MaxHandoffBytes: 4096})
	t.Cleanup(func() { rt.Close() })
	if _, err := rt.RegisterWCC("bigmouth", `
export i32 main() {
	u8* out = alloc(8192);
	sys_output(out, 8192);
	return 0;
}
`, wcc.Options{HeapBytes: 1 << 20}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	if _, err := rt.RegisterPipeline("bigchain", "bigmouth"); err != nil {
		t.Fatalf("RegisterPipeline: %v", err)
	}
	if _, err := rt.Invoke(PipelinePrefix+"bigchain", nil); !errors.Is(err, abi.ErrHandoffTooLarge) {
		t.Fatalf("oversized declaration: %v, want ErrHandoffTooLarge", err)
	}
	// A single-function invoke hits the same cap (the region is the reply).
	if _, err := rt.Invoke("bigmouth", nil); !errors.Is(err, abi.ErrHandoffTooLarge) {
		t.Fatalf("single invoke: %v, want ErrHandoffTooLarge", err)
	}

	base := serveRuntime(t, rt)
	resp, err := http.Post(base+"/p/bigchain", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST /p/bigchain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Errorf("oversized handoff status = %d, want 413", resp.StatusCode)
	}
}

// TestPipelineHTTP serves a chain at POST /p/<name> and checks the reply,
// the 404 for unknown chains, and the /__stats pipelines block.
func TestPipelineHTTP(t *testing.T) {
	rt := newTestRuntime(t)
	registerChain(t, rt)
	base := serveRuntime(t, rt)

	req := apps.ChainRequest(32, 32)
	resp, err := http.Post(base+"/p/imgchain", "application/octet-stream", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("POST /p/imgchain: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("chain status = %d", resp.StatusCode)
	}
	if want := apps.ChainNative(req); !bytes.Equal(body, want) {
		t.Errorf("chain over HTTP: %d bytes, want %d", len(body), len(want))
	}

	resp, err = http.Post(base+"/p/ghostchain", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST /p/ghostchain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown chain status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(base + "/__stats")
	if err != nil {
		t.Fatalf("GET /__stats: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Pipelines map[string]PipelineStats `json:"pipelines"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	st, ok := stats.Pipelines["imgchain"]
	if !ok {
		t.Fatalf("stats missing pipeline block: %s", body)
	}
	if st.Invocations != 1 || st.FastHandoffs != 1 || st.BufferedHandoffs != 1 {
		t.Errorf("served stats = %+v", st)
	}
}

// TestPipelineHealthEntry: registered chains appear in the health snapshot
// under their reserved "p/<name>" key so cluster routers place whole chains.
func TestPipelineHealth(t *testing.T) {
	rt := newTestRuntime(t)
	registerChain(t, rt)
	h := rt.Health()
	mh, ok := h.Modules[PipelinePrefix+"imgchain"]
	if !ok {
		t.Fatalf("health snapshot missing p/imgchain: %v", h.Modules)
	}
	if mh.Tier == "" {
		t.Error("chain health has no tier label")
	}
}

// TestPipelineZeroAllocHandoff is the acceptance gate for the fast path: in
// steady state, each additional co-located stage adds zero heap allocations
// per invocation. Two otherwise identical chains — one stage vs three — are
// measured after warmup; the per-invoke difference must be ~0.
func TestPipelineZeroAllocHandoff(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under -race: sync.Pool drops items on purpose")
	}
	rt := newTestRuntime(t)
	// A fast-handoff echo stage: declares its input back as output.
	const echoOut = `
export i32 main() {
	i32 n = sys_req_len();
	u8* buf = alloc(n);
	sys_read(buf, n);
	sys_output(buf, n);
	return 0;
}
`
	if _, err := rt.RegisterWCC("eo", echoOut, wcc.Options{HeapBytes: 1 << 20}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	if _, err := rt.RegisterPipeline("one", "eo"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPipeline("three", "eo", "eo", "eo"); err != nil {
		t.Fatal(err)
	}

	req := apps.EchoPayload(512)
	// Invocation names are built once, so the measured calls do no string
	// concatenation.
	one, three := PipelinePrefix+"one", PipelinePrefix+"three"
	invoke := func(name string) func() {
		return func() {
			out, err := rt.Invoke(name, req)
			if err != nil || !bytes.Equal(out, req) {
				t.Fatalf("%s: %d bytes, %v", name, len(out), err)
			}
		}
	}
	// Warm the sandbox shells and instance pools (the 3-stage chain keeps
	// up to three instances alive at once: producer, consumer, prefetch).
	for i := 0; i < 8; i++ {
		invoke("eo")()
		invoke(one)()
		invoke(three)()
	}

	allocDirect := testing.AllocsPerRun(50, invoke("eo"))
	allocOne := testing.AllocsPerRun(50, invoke(one))
	allocThree := testing.AllocsPerRun(50, invoke(three))
	// A one-stage chain is the direct invoke run through the same executor.
	if allocOne != allocDirect {
		t.Errorf("1-stage chain %.1f allocs/op, direct invoke %.1f, want equal", allocOne, allocDirect)
	}
	if diff := allocThree - allocOne; diff > 0.5 {
		t.Errorf("extra stages allocate: 1-stage %.1f allocs/op, 3-stage %.1f (diff %.1f, want 0)",
			allocOne, allocThree, diff)
	}
}
