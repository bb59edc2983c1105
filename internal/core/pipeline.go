package core

// Function composition: a pipeline is a registered, ordered module chain —
// the degenerate DAG — invoked by name (POST /p/<name>, Invoke("p/<name>")).
// Co-located stages hand off through shared linear-memory buffers instead of
// HTTP self-calls: a stage declares its result region via sledge.output, the
// executor aliases that region as the next stage's Request (keeping the
// producing instance alive until the consumer finishes), and the single
// bounds-checked copy between instance memories happens inside the next
// stage's sledge.read. No serialization, no loopback hop, no per-stage
// admission. See docs/PIPELINES.md for the contract.
//
// Scheduling: the executor acquires the next stage's pooled instance while
// the current stage runs (overlapping instantiation with execution) and
// submits each continuation with affinity for the worker that ran the
// previous stage (sched.SubmitAffine), so the handoff buffer is consumed on
// the core whose cache just wrote it. Stealing still applies to the
// continuation, so affinity never defeats work conservation.
//
// Admission: one ticket under the reserved name "p/<name>" covers the whole
// chain, and one deadline is threaded across it. The controller's estimate
// for the pipeline is seeded with the sum of the stages' epoch latencies and
// thereafter learns whole-chain service times. Mid-chain, each stage is shed
// against the *remaining* budget — deadline minus time already spent in
// prior stages — never the full request deadline.
//
// Gas stays deterministic: each stage is charged its static cost exactly as
// a standalone invoke would be, and the chain's gas is the sum — bit-equal
// to invoking the stages individually with the same payloads.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sledge/internal/engine"
	"sledge/internal/sandbox"
)

// PipelinePrefix is the reserved invocation-name prefix for pipelines: the
// HTTP surface exposes a pipeline at /p/<name>, and the same "p/<name>"
// string names it in Invoke, admission accounting, health snapshots, and
// cluster routing (a cluster routes the whole chain to one node, never
// per-stage). Module names must not start with it.
const PipelinePrefix = "p/"

// ErrNoPipeline reports an unknown pipeline name.
var ErrNoPipeline = errors.New("core: no such pipeline")

// ErrDuplicatePipeline reports a name collision at pipeline registration.
var ErrDuplicatePipeline = errors.New("core: pipeline already registered")

// ErrEmptyPipeline reports a RegisterPipeline call with no stages.
var ErrEmptyPipeline = errors.New("core: pipeline needs at least one stage")

// Pipeline is a registered module chain. Stage modules are resolved by name
// at each invocation, so Replace/Unregister of a stage behaves exactly as it
// does for direct invokes.
type Pipeline struct {
	Name string
	// Tenant attributes the whole chain's admission ticket; empty means
	// the default tenant.
	Tenant string

	stages []string

	invocations atomic.Uint64
	failures    atomic.Uint64
	sheds       atomic.Uint64
	totalNanos  atomic.Int64
	gas         atomic.Uint64

	// Handoff accounting for the N-1 intermediate boundaries: fast counts
	// sledge.output-declared regions handed to the next stage zero-copy,
	// buffered counts stages that fell back to the sledge.write Response
	// buffer (still in-memory, still no HTTP hop).
	fastHandoffs     atomic.Uint64
	bufferedHandoffs atomic.Uint64
	handoffBytes     atomic.Uint64
}

// StageNames returns the chain's module names in execution order.
func (p *Pipeline) StageNames() []string {
	out := make([]string, len(p.stages))
	copy(out, p.stages)
	return out
}

// PipelineStats is a pipeline's accounting snapshot (served in /__stats).
type PipelineStats struct {
	Stages      []string `json:"stages"`
	Invocations uint64   `json:"invocations"`
	Failures    uint64   `json:"failures"`
	// Sheds counts chains cut mid-flight because a later stage's estimate
	// exceeded the remaining deadline budget.
	Sheds       uint64        `json:"sheds"`
	MeanLatency time.Duration `json:"mean_latency_ns"`
	// Gas is the cumulative chain gas: the sum of each stage's static
	// charge-point cost, bit-identical to invoking the stages separately.
	Gas              uint64 `json:"gas"`
	FastHandoffs     uint64 `json:"fast_handoffs"`
	BufferedHandoffs uint64 `json:"buffered_handoffs"`
	HandoffBytes     uint64 `json:"handoff_bytes"`
}

// Stats returns the pipeline's accounting snapshot.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Stages:           p.StageNames(),
		Invocations:      p.invocations.Load(),
		Failures:         p.failures.Load(),
		Sheds:            p.sheds.Load(),
		Gas:              p.gas.Load(),
		FastHandoffs:     p.fastHandoffs.Load(),
		BufferedHandoffs: p.bufferedHandoffs.Load(),
		HandoffBytes:     p.handoffBytes.Load(),
	}
	if st.Invocations > 0 {
		st.MeanLatency = time.Duration(p.totalNanos.Load() / int64(st.Invocations))
	}
	return st
}

// RegisterPipeline registers an ordered module chain under name, invocable
// at POST /p/<name> and Invoke("p/<name>"). Every stage must already be
// registered; stages may repeat. The first return of a chain-long journey:
// stage 0 reads the request body, stage N-1's result is the reply.
func (rt *Runtime) RegisterPipeline(name string, stages ...string) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("core: pipeline needs a name")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptyPipeline, name)
	}
	for _, s := range stages {
		if _, ok := rt.Lookup(s); !ok {
			return nil, fmt.Errorf("core: pipeline %s: stage %w: %s", name, ErrNoModule, s)
		}
	}
	p := &Pipeline{Name: name, stages: append([]string(nil), stages...)}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.pipelines == nil {
		rt.pipelines = make(map[string]*Pipeline)
	}
	if _, dup := rt.pipelines[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePipeline, name)
	}
	rt.pipelines[name] = p
	return p, nil
}

// LookupPipeline returns the pipeline registered under name.
func (rt *Runtime) LookupPipeline(name string) (*Pipeline, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	p, ok := rt.pipelines[name]
	return p, ok
}

// Pipelines lists registered pipeline names.
func (rt *Runtime) Pipelines() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.pipelines))
	for name := range rt.pipelines {
		out = append(out, name)
	}
	return out
}

// stageEstimate is the expected service time of one stage for the remaining-
// budget shed decision (serviceEstimate over the controller's live EWMA).
func (rt *Runtime) stageEstimate(m *Module) time.Duration {
	var ewma time.Duration
	if rt.adm != nil {
		ewma = rt.adm.Estimate(m.Name)
	}
	return serviceEstimate(ewma, m.seedLatency())
}

// handoff resolves a completed stage's result — the next stage's request,
// or the reply after the last stage: the declared output region (aliasing
// the stage's linear memory) or the Response buffer. On the steady-state
// path this allocates nothing — the slice aliases memory owned by the
// sandbox, which the executor keeps alive until the consumer finishes.
//
//sledge:noalloc
func handoff(sb *sandbox.Sandbox) ([]byte, bool, error) {
	out, err := sb.Output()
	return out, sb.OutputDeclared(), err
}

// recordHandoff accounts one intermediate stage boundary.
//
//sledge:noalloc
func (p *Pipeline) recordHandoff(declared bool, n int) {
	if declared {
		p.fastHandoffs.Add(1)
	} else {
		p.bufferedHandoffs.Add(1)
	}
	p.handoffBytes.Add(uint64(n))
}

// retryHint floors a mid-chain shed's Retry-After at something meaningful
// when the stage estimate is tiny or unknown.
func retryHint(est time.Duration) time.Duration {
	if est < time.Millisecond {
		return time.Millisecond
	}
	return est
}

// chainSeedLocked sums the chain's per-stage epoch latencies: the whole-
// chain estimate before any chain has completed (the admission seed and the
// health fallback). Callers hold rt.mu.
func chainSeedLocked(rt *Runtime, p *Pipeline) time.Duration {
	var sum time.Duration
	for _, s := range p.stages {
		if m, ok := rt.registry[s]; ok {
			sum += m.seedLatency()
		}
	}
	return sum
}

// chainTierLocked is the pipeline's weakest stage tier. Callers hold rt.mu.
func chainTierLocked(rt *Runtime, p *Pipeline) string {
	rank := func(label string) int {
		switch label {
		case TierLabelCold:
			return 0
		case engine.TierLabelCheap:
			return 1
		default:
			return 2
		}
	}
	worst, worstRank := "", 3
	for _, s := range p.stages {
		label := TierLabelCold
		if m, ok := rt.registry[s]; ok {
			if cm := m.Compiled(); cm != nil {
				label = cm.TierLabel()
			}
		}
		if r := rank(label); r < worstRank {
			worst, worstRank = label, r
		}
	}
	return worst
}

// splitPipelineName reports whether an invocation name addresses a pipeline
// and strips the reserved prefix.
func splitPipelineName(name string) (string, bool) {
	if strings.HasPrefix(name, PipelinePrefix) {
		return name[len(PipelinePrefix):], true
	}
	return "", false
}
