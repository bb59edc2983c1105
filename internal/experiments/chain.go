package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sledge/internal/core"
	"sledge/internal/loadgen"
	"sledge/internal/stats"
	"sledge/internal/workloads/apps"
)

// The function-composition benchmark drives the image chain
// resize -> rgb2gray -> lpd through the same runtime two ways:
//
//   - http-selfcall: the pre-composition architecture. The client invokes
//     stage 1 over HTTP, receives the reply, and POSTs it to stage 2, then
//     stage 3. The entry connection is kept alive (a client would), but the
//     internal hops open a fresh connection per call: a stateless sandbox
//     cannot carry a pooled client between invocations, so each self-call
//     pays connection setup plus two full HTTP serializations of the
//     intermediate frame.
//   - pipeline: the registered chain at POST /p/imgchain. One request, one
//     admission ticket; co-located stages hand intermediate frames through
//     shared linear-memory buffers (sledge.output regions consumed
//     zero-copy, or the in-memory response buffer), never touching a
//     socket.
//
// Both modes validate every reply against the native chain, and the
// benchmark asserts the two modes return bit-identical bytes and charge
// bit-identical per-stage gas before any timing begins. The acceptance
// statistic is the p50 speedup: pipeline must be >= 3x faster.
//
// `make bench-chain` regenerates BENCH_chain.json from this file.

type chainModeEntry struct {
	Mode          string  `json:"mode"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	P50NS         int64   `json:"p50_ns"`
	P90NS         int64   `json:"p90_ns"`
	P99NS         int64   `json:"p99_ns"`
	MeanNS        int64   `json:"mean_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// chainSnapshot is the machine-readable BENCH_chain.json payload.
type chainSnapshot struct {
	snapHeader
	Stages      []string `json:"stages"`
	FrameW      int      `json:"frame_w"`
	FrameH      int      `json:"frame_h"`
	Concurrency int      `json:"concurrency"`

	// Identity checks, asserted before timing: the pipeline reply must be
	// byte-identical to the HTTP self-call chain (and the native mirror),
	// and each stage must charge the same deterministic gas in both modes.
	OutputIdentical bool              `json:"output_identical"`
	GasIdentical    bool              `json:"gas_identical"`
	GasPerStage     map[string]uint64 `json:"gas_per_stage"`

	Modes []chainModeEntry `json:"modes"`
	// SpeedupP50 is selfcall-p50 / pipeline-p50, the acceptance statistic.
	SpeedupP50 float64 `json:"speedup_pipeline_vs_selfcall_p50"`

	// Handoff accounting from the pipeline's own counters over the load run.
	FastHandoffs     uint64 `json:"fast_handoffs"`
	BufferedHandoffs uint64 `json:"buffered_handoffs"`
	HandoffBytes     uint64 `json:"handoff_bytes"`
}

// RunChain measures the co-located pipeline fast path against the HTTP
// self-call baseline on the chain-of-3 image pipeline. With SnapshotPath set
// it writes BENCH_chain.json.
func RunChain(o Options) ([]*Table, error) {
	var snap chainSnapshot
	return runChain(o, &snap)
}

func runChain(o Options, snap *chainSnapshot) ([]*Table, error) {
	// The frame is deliberately small: composition targets fine-grained
	// function chains, where the per-hop overhead the fast path removes —
	// connection setup plus two HTTP serializations per intermediate frame —
	// dominates the stage compute. The compute kernels are the real apps at
	// thumbnail size; scaling the frame up just rediscovers that big enough
	// functions amortize any hop cost.
	frameW, frameH := 8, 8
	requests := 600
	conc := 4
	if o.Quick {
		frameW, frameH = 16, 16
		requests = 120
	}
	workers := min(o.workers(), 8)

	snap.Description = "Function composition: chain-of-3 image pipeline (resize -> rgb2gray -> lpd), co-located zero-copy pipeline vs HTTP self-call baseline. make bench-chain"
	snap.Stages = apps.ChainStages
	snap.FrameW = frameW
	snap.FrameH = frameH
	snap.Concurrency = conc
	snap.Acceptance = "pipeline p50 >= 3x faster than HTTP self-call; replies and per-stage gas bit-identical between modes"

	stages, err := appsNamed(apps.ChainStages...)
	if err != nil {
		return nil, err
	}
	rt, base, err := serveNode(core.Config{Workers: workers}, stages...)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	pipe, err := rt.RegisterPipeline("imgchain", apps.ChainStages...)
	if err != nil {
		return nil, err
	}

	req := apps.ChainRequest(frameW, frameH)
	want := apps.ChainNative(req)
	chain := core.PipelinePrefix + "imgchain"

	// Clients: the entry hop keeps its connection alive in both modes; the
	// self-call baseline's internal hops cannot (a stateless sandbox holds
	// no client pool across invocations), so they redial per call.
	entryClient := &http.Client{Timeout: 30 * time.Second}
	hopClient := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}

	selfCall := func() ([]byte, error) {
		body := req
		for i, name := range apps.ChainStages {
			client := entryClient
			if i > 0 {
				client = hopClient
			}
			resp, err := client.Post(base+"/"+name, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				return nil, fmt.Errorf("self-call %s: %w", name, err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("self-call %s: %w", name, err)
			}
			if resp.StatusCode != 200 {
				return nil, fmt.Errorf("self-call %s: status %d", name, resp.StatusCode)
			}
			body = out
		}
		return body, nil
	}

	// ---- identity checks, before any timing ----
	stageGas := func() map[string]uint64 {
		out := make(map[string]uint64, len(apps.ChainStages))
		for _, name := range apps.ChainStages {
			if m, ok := rt.Lookup(name); ok {
				out[name] = m.Stats().Gas
			}
		}
		return out
	}
	gasDelta := func(before map[string]uint64) map[string]uint64 {
		after := stageGas()
		for name := range after {
			after[name] -= before[name]
		}
		return after
	}

	before := stageGas()
	selfReply, err := selfCall()
	if err != nil {
		return nil, err
	}
	selfGas := gasDelta(before)

	before = stageGas()
	pipeReply, err := rt.Invoke(chain, req)
	if err != nil {
		return nil, err
	}
	pipeGas := gasDelta(before)

	snap.OutputIdentical = bytes.Equal(selfReply, pipeReply) && bytes.Equal(pipeReply, want)
	snap.GasIdentical = true
	snap.GasPerStage = pipeGas
	for _, name := range apps.ChainStages {
		if selfGas[name] != pipeGas[name] || pipeGas[name] == 0 {
			snap.GasIdentical = false
		}
	}
	if !snap.OutputIdentical {
		return nil, fmt.Errorf("chain: modes disagree: self-call %d bytes, pipeline %d bytes, native %d bytes",
			len(selfReply), len(pipeReply), len(want))
	}
	if !snap.GasIdentical {
		return nil, fmt.Errorf("chain: per-stage gas diverges: self-call %v, pipeline %v", selfGas, pipeGas)
	}
	o.logf("chain: identity ok (%d-byte reply, gas %v)", len(pipeReply), pipeGas)

	validate := func(body []byte) error {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("reply %d bytes, want %d", len(body), len(want))
		}
		return nil
	}

	// ---- measured modes ----
	// Warm both paths (connections, instance pools) before timing.
	for i := 0; i < 8; i++ {
		if _, err := selfCall(); err != nil {
			return nil, err
		}
		if _, err := rt.Invoke(chain, req); err != nil {
			return nil, err
		}
	}

	selfEntry, err := runChainSelfCall(selfCall, validate, conc, requests)
	if err != nil {
		return nil, err
	}
	snap.Modes = append(snap.Modes, selfEntry)
	o.logf("chain: http-selfcall p50=%v p99=%v (%.0f chains/s)",
		time.Duration(selfEntry.P50NS), time.Duration(selfEntry.P99NS), selfEntry.ThroughputRPS)

	handoffBase := pipe.Stats()
	res, err := loadgen.Run(loadgen.Options{
		URL:         loadgen.PipelineURL(base, "imgchain"),
		Concurrency: conc,
		Requests:    requests,
		Body:        req,
		Validate:    validate,
		Timeout:     30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	pipeEntry := chainModeEntry{
		Mode:          "pipeline",
		Requests:      res.Summary.Count,
		Errors:        res.Errors,
		P50NS:         res.Summary.P50.Nanoseconds(),
		P90NS:         res.Summary.P90.Nanoseconds(),
		P99NS:         res.Summary.P99.Nanoseconds(),
		MeanNS:        res.Summary.Mean.Nanoseconds(),
		ThroughputRPS: res.ThroughputRPS,
	}
	snap.Modes = append(snap.Modes, pipeEntry)
	o.logf("chain: pipeline p50=%v p99=%v (%.0f chains/s)",
		time.Duration(pipeEntry.P50NS), time.Duration(pipeEntry.P99NS), pipeEntry.ThroughputRPS)

	handoffEnd := pipe.Stats()
	snap.FastHandoffs = handoffEnd.FastHandoffs - handoffBase.FastHandoffs
	snap.BufferedHandoffs = handoffEnd.BufferedHandoffs - handoffBase.BufferedHandoffs
	snap.HandoffBytes = handoffEnd.HandoffBytes - handoffBase.HandoffBytes

	if pipeEntry.P50NS > 0 {
		snap.SpeedupP50 = float64(selfEntry.P50NS) / float64(pipeEntry.P50NS)
	}

	if err := o.writeSnapshot("chain", snap); err != nil {
		return nil, err
	}

	tbl := &Table{
		ID: "chain",
		Title: fmt.Sprintf("Function composition: %v on a %dx%d frame, %d chains at concurrency %d",
			apps.ChainStages, frameW, frameH, requests, conc),
		Headers: []string{"mode", "p50", "p90", "p99", "mean", "chains/s", "vs selfcall (p50)"},
		Notes: []string{
			"http-selfcall POSTs each stage's reply to the next stage's route; internal hops redial per call (stateless sandboxes hold no client pool);",
			fmt.Sprintf("pipeline invokes POST /p/imgchain: %d fast (sledge.output zero-copy) + %d buffered handoffs, %d bytes never serialized;",
				snap.FastHandoffs, snap.BufferedHandoffs, snap.HandoffBytes),
			"replies and per-stage gas asserted bit-identical between modes before timing",
		},
	}
	for _, e := range snap.Modes {
		ratio := "-"
		if e.P50NS > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(selfEntry.P50NS)/float64(e.P50NS))
		}
		tbl.Rows = append(tbl.Rows, []string{
			e.Mode,
			time.Duration(e.P50NS).String(),
			time.Duration(e.P90NS).String(),
			time.Duration(e.P99NS).String(),
			time.Duration(e.MeanNS).String(),
			fmt.Sprintf("%.0f", e.ThroughputRPS),
			ratio,
		})
	}
	return []*Table{tbl}, nil
}

// runChainSelfCall closed-loops the HTTP self-call baseline: conc workers
// each drive whole chains, one at a time, until requests chains completed.
func runChainSelfCall(selfCall func() ([]byte, error), validate func([]byte) error, conc, requests int) (chainModeEntry, error) {
	var (
		mu     sync.Mutex
		lats   []time.Duration
		errs   int
		nextID int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if nextID >= requests {
					mu.Unlock()
					return
				}
				nextID++
				mu.Unlock()
				t0 := time.Now()
				body, err := selfCall()
				lat := time.Since(t0)
				if err == nil {
					err = validate(body)
				}
				mu.Lock()
				if err != nil {
					errs++
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(lats) == 0 {
		return chainModeEntry{}, fmt.Errorf("chain: self-call baseline produced no successful chains (%d errors)", errs)
	}
	sum := stats.Summarize(lats)
	return chainModeEntry{
		Mode:          "http-selfcall",
		Requests:      sum.Count,
		Errors:        errs,
		P50NS:         sum.P50.Nanoseconds(),
		P90NS:         sum.P90.Nanoseconds(),
		P99NS:         sum.P99.Nanoseconds(),
		MeanNS:        sum.Mean.Nanoseconds(),
		ThroughputRPS: float64(sum.Count) / elapsed.Seconds(),
	}, nil
}
