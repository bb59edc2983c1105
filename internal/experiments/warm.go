package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sledge/internal/abi"
	"sledge/internal/core"
	"sledge/internal/engine"
	"sledge/internal/loadgen"
	"sledge/internal/stats"
	"sledge/internal/wasm"
)

// The warm-start benchmark has two halves:
//
//  1. First invoke — an init-heavy module (a start function that writes
//     every byte of linear memory) instantiated cold, with and without the
//     post-init snapshot. Replay pays the start function on every
//     instantiation; the snapshot path memcpys the captured image and
//     credits the recorded gas. The acceptance number is the p50 speedup:
//     snapshot must be >= 5x faster than replay.
//  2. Fleet economics — a 10k-module registration storm followed by
//     open-loop Zipf(1.3) HTTP traffic, once against an unbounded registry
//     and once under a CacheBudgetBytes a quarter of the fleet's resident
//     footprint. The bounded run must hold goodput >= 0.9x the unbounded
//     run while the ARC controller demotes the cold tail (purged pools,
//     dropped snapshots, dropped bodies + lazy recompile), with heap-in-use
//     sampled through the run to show RSS holds steady at the budget.
//
// `make bench-warm` regenerates BENCH_warm.json from this file.

type warmFirstInvokeEntry struct {
	Mode   string `json:"mode"`
	P50NS  int64  `json:"p50_ns"`
	MeanNS int64  `json:"mean_ns"`
}

type warmFirstInvokeSection struct {
	InitBytes     int                    `json:"init_bytes"`
	SnapshotBytes int64                  `json:"snapshot_bytes"`
	Samples       int                    `json:"samples"`
	Modes         []warmFirstInvokeEntry `json:"modes"`
	// SpeedupP50 is replay-p50 / snapshot-p50, the acceptance statistic.
	SpeedupP50 float64 `json:"speedup_snapshot_vs_replay_p50"`
}

type warmFleetEntry struct {
	Mode             string  `json:"mode"`
	BudgetBytes      int64   `json:"budget_bytes"`
	RegisterTotalNS  int64   `json:"register_total_ns"`
	RegisterPerModNS int64   `json:"register_per_module_ns"`
	Issued           int     `json:"issued"`
	Errors           int     `json:"errors"`
	GoodputRPS       float64 `json:"goodput_rps"`
	P50NS            int64   `json:"p50_ns"`
	P99NS            int64   `json:"p99_ns"`
	// Heap-in-use samples taken through the load run, and the steady-state
	// ratio mean(last third)/mean(middle third): ~1.0 means RSS held flat.
	HeapSamples    []int64 `json:"heap_inuse_samples"`
	HeapPeakBytes  int64   `json:"heap_peak_bytes"`
	HeapEndBytes   int64   `json:"heap_end_bytes"`
	SteadyRSSRatio float64 `json:"steady_rss_ratio"`
	// Cache is nil for the unbounded mode.
	Cache *core.CacheSnapshot `json:"cache,omitempty"`
}

type warmFleetSection struct {
	Modules     int              `json:"modules"`
	ZipfS       float64          `json:"zipf_s"`
	RatePerSec  float64          `json:"rate_per_sec"`
	DurationMS  int64            `json:"duration_ms"`
	Workers     int              `json:"workers"`
	PerModBytes int64            `json:"per_module_resident_bytes"`
	Modes       []warmFleetEntry `json:"modes"`
	// GoodputRatio is budgeted/unbounded, the acceptance statistic.
	GoodputRatio float64 `json:"goodput_ratio_budgeted_vs_unbounded"`
}

// warmSnapshot is the machine-readable BENCH_warm.json payload.
type warmSnapshot struct {
	snapHeader
	FirstInvoke warmFirstInvokeSection `json:"first_invoke"`
	Fleet       warmFleetSection       `json:"fleet_economics"`
}

// warmInitModule builds the init-heavy module for the first-invoke half: a
// start function that writes every byte of an initBytes linear memory (the
// interpreter-rendered analogue of a language runtime initializing its
// heap), then plants an i32 marker and a global the exported entry reads
// back. WCC never emits start sections, so the module is built directly in
// the IR.
func warmInitModule(initBytes int) (*wasm.Module, error) {
	pages := uint32(initBytes / wasm.PageSize)
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{},
		{Results: []wasm.ValType{wasm.ValI32}},
	}
	m.Memories = []wasm.Limits{{Min: pages, Max: pages, HasMax: true}}
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.ValI32, Mutable: true},
		Init: wasm.Instr{Op: wasm.OpI32Const, Imm: 0},
	}}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Locals: []wasm.ValType{wasm.ValI32}, Body: []wasm.Instr{
			// for (i = 0; i < initBytes; i++) mem8[i] = i*31
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: uint64(initBytes)},
			{Op: wasm.OpI32GeU},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 31},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Store8},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			// mem[16] = 0x5EDC; global = initBytes
			{Op: wasm.OpI32Const, Imm: 16},
			{Op: wasm.OpI32Const, Imm: 0x5EDC},
			{Op: wasm.OpI32Store, Imm2: 2},
			{Op: wasm.OpI32Const, Imm: uint64(initBytes)},
			{Op: wasm.OpGlobalSet, Imm: 0},
		}, Name: "boot"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 16},
			{Op: wasm.OpI32Load, Imm2: 2},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Add},
		}, Name: "main"},
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 1}}
	m.Start = 0
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("warm: init module invalid: %w", err)
	}
	return m, nil
}

// warmFleetModuleBin builds the fleet workload: the same shape as the Zipf
// compute module (sys_read, table lookup, sys_write) but with the table
// fill moved into a start section, so every one of the fleet's modules
// carries a post-init snapshot and the cache's full demotion ladder —
// purge pools, drop snapshot, drop body — is exercised at fleet scale.
func warmFleetModuleBin() ([]byte, error) {
	const tblBase, tblLen = 1024, 4096
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{wasm.ValI32, wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}},
		{},
		{Results: []wasm.ValType{wasm.ValI32}},
	}
	m.Imports = []wasm.Import{
		{Module: "sledge", Name: "read", Kind: wasm.ExternFunc, TypeIdx: 0},
		{Module: "sledge", Name: "write", Kind: wasm.ExternFunc, TypeIdx: 0},
	}
	m.Memories = []wasm.Limits{{Min: 1, Max: 1, HasMax: true}}
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.ValI32, Mutable: true},
		Init: wasm.Instr{Op: wasm.OpI32Const, Imm: 0},
	}}
	m.Funcs = []wasm.Func{
		// boot (func index 2, after the two imports): fill the lookup table,
		// record its length in the global. Host-free, so the snapshot probe
		// captures it.
		{TypeIdx: 1, Locals: []wasm.ValType{wasm.ValI32}, Body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: tblLen},
			{Op: wasm.OpI32GeU},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: tblBase},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 7},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Const, Imm: 3},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpI32Store8},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpI32Const, Imm: tblLen},
			{Op: wasm.OpGlobalSet, Imm: 0},
		}, Name: "boot"},
		// main (func index 3): read the request byte, answer with the table
		// byte it indexes (plus the global, proving post-init state survived
		// whatever warm path served the request).
		{TypeIdx: 2, Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 8},
			{Op: wasm.OpCall, Imm: 0}, // sys_read
			{Op: wasm.OpDrop},
			{Op: wasm.OpI32Const, Imm: 0}, // store address for the reply
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Load8U},
			{Op: wasm.OpI32Const, Imm: 13},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Const, Imm: tblLen - 1},
			{Op: wasm.OpI32And},
			{Op: wasm.OpI32Const, Imm: tblBase},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpI32Load8U},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpI32Store8},
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpCall, Imm: 1}, // sys_write
			{Op: wasm.OpDrop},
			{Op: wasm.OpI32Const, Imm: 0},
		}, Name: "main"},
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 3}}
	m.Start = 2
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("warm: fleet module invalid: %w", err)
	}
	return wasm.Encode(m)
}

// RunWarm measures warm starts: post-init snapshot first-invoke latency
// against start-function replay, and fleet-scale goodput under a bounded
// module cache. With SnapshotPath set it writes BENCH_warm.json.
func RunWarm(o Options) ([]*Table, error) {
	var snap warmSnapshot
	return runWarm(o, &snap)
}

func runWarm(o Options, snap *warmSnapshot) ([]*Table, error) {
	initBytes := 2 * wasm.PageSize
	samples := 60
	fleetM := 10000
	rate := 4000.0
	dur := 3 * time.Second
	if o.Quick {
		initBytes = wasm.PageSize
		samples = 12
		fleetM = 400
		rate = 1200
		dur = 600 * time.Millisecond
	}
	workers := min(o.workers(), 8)

	snap.Description = "Warm starts: post-init snapshot vs start-function replay on first invoke, and a bounded ARC module cache holding fleet goodput under a fixed RSS budget. make bench-warm"
	snap.Acceptance = "first invoke from snapshot >= 5x faster (p50) than replay; budgeted fleet goodput >= 0.9x unbounded with steady RSS"

	firstTbl, err := runWarmFirstInvoke(o, initBytes, samples, &snap.FirstInvoke)
	if err != nil {
		return nil, err
	}
	fleetTbl, err := runWarmFleet(o, fleetM, workers, rate, dur, &snap.Fleet)
	if err != nil {
		return nil, err
	}

	if err := o.writeSnapshot("warm", snap); err != nil {
		return nil, err
	}
	return []*Table{firstTbl, fleetTbl}, nil
}

// runWarmFirstInvoke times cold instantiation (Instantiate+Start+Run) of
// the init-heavy module with the snapshot on and off, plus the pooled
// steady state for context. Results and gas must be bit-identical across
// all three paths — a fidelity check baked into the benchmark itself.
func runWarmFirstInvoke(o Options, initBytes, samples int, out *warmFirstInvokeSection) (*Table, error) {
	m, err := warmInitModule(initBytes)
	if err != nil {
		return nil, err
	}
	base := engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsGuard}
	replayCfg := base
	replayCfg.NoSnapshot = true

	snapCM, err := engine.Compile(m, nil, base)
	if err != nil {
		return nil, fmt.Errorf("warm: compile (snapshot): %w", err)
	}
	replayCM, err := engine.Compile(m, nil, replayCfg)
	if err != nil {
		return nil, fmt.Errorf("warm: compile (replay): %w", err)
	}
	if snapCM.SnapshotBytes() == 0 {
		return nil, fmt.Errorf("warm: init module did not snapshot")
	}
	out.InitBytes = initBytes
	out.SnapshotBytes = snapCM.SnapshotBytes()
	out.Samples = samples

	wantResult := uint64(0x5EDC + initBytes)
	runOnce := func(in *engine.Instance) (uint64, uint64, error) {
		if err := in.Start("main"); err != nil {
			return 0, 0, err
		}
		st, err := in.Run(1 << 40)
		if st != engine.StatusDone {
			return 0, 0, fmt.Errorf("status %v: %v", st, err)
		}
		v, _ := in.Result()
		return v, in.Gas, nil
	}

	var refGas uint64
	measure := func(mode string, next func() *engine.Instance, done func(*engine.Instance)) (warmFirstInvokeEntry, error) {
		lats := make([]time.Duration, samples)
		for i := range lats {
			t0 := time.Now()
			in := next()
			v, gas, err := runOnce(in)
			lats[i] = time.Since(t0)
			if err != nil {
				return warmFirstInvokeEntry{}, fmt.Errorf("warm %s: %w", mode, err)
			}
			if v != wantResult {
				return warmFirstInvokeEntry{}, fmt.Errorf("warm %s: result %#x, want %#x", mode, v, wantResult)
			}
			if refGas == 0 {
				refGas = gas
			} else if gas != refGas {
				return warmFirstInvokeEntry{}, fmt.Errorf("warm %s: gas %d diverges from %d", mode, gas, refGas)
			}
			if done != nil {
				done(in)
			}
		}
		sum := stats.Summarize(lats)
		return warmFirstInvokeEntry{
			Mode:   mode,
			P50NS:  sum.P50.Nanoseconds(),
			MeanNS: sum.Mean.Nanoseconds(),
		}, nil
	}

	replayEntry, err := measure("replay", replayCM.Instantiate, nil)
	if err != nil {
		return nil, err
	}
	snapEntry, err := measure("snapshot", snapCM.Instantiate, nil)
	if err != nil {
		return nil, err
	}
	// Pooled steady state: recycled instance, reset against the snapshot
	// image. Warm the pool first so every sample takes the Acquire hit path.
	for i := 0; i < 4; i++ {
		in := snapCM.Acquire()
		if _, _, err := runOnce(in); err != nil {
			return nil, fmt.Errorf("warm pooled warmup: %w", err)
		}
		snapCM.Release(in)
	}
	pooledEntry, err := measure("snapshot+pool", snapCM.Acquire, snapCM.Release)
	if err != nil {
		return nil, err
	}

	out.Modes = []warmFirstInvokeEntry{replayEntry, snapEntry, pooledEntry}
	if snapEntry.P50NS > 0 {
		out.SpeedupP50 = float64(replayEntry.P50NS) / float64(snapEntry.P50NS)
	}

	tbl := &Table{
		ID: "warm-first-invoke",
		Title: fmt.Sprintf("First invoke: %d KiB init in start section, %d samples",
			initBytes/1024, samples),
		Headers: []string{"mode", "p50", "mean", "vs replay (p50)"},
		Notes: []string{
			"replay re-runs the start function on every instantiation (NoSnapshot);",
			fmt.Sprintf("snapshot materializes the %d-byte post-init image and credits the recorded gas;", out.SnapshotBytes),
			"snapshot+pool is the steady-state request path (recycled instance, snapshot-diff reset);",
			"results and charged gas are asserted bit-identical across all three paths",
		},
	}
	for _, e := range out.Modes {
		ratio := "-"
		if e.P50NS > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(replayEntry.P50NS)/float64(e.P50NS))
		}
		tbl.Rows = append(tbl.Rows, []string{
			e.Mode,
			time.Duration(e.P50NS).String(),
			time.Duration(e.MeanNS).String(),
			ratio,
		})
		o.logf("warm first-invoke: %s p50=%v mean=%v", e.Mode,
			time.Duration(e.P50NS), time.Duration(e.MeanNS))
	}
	return tbl, nil
}

// runWarmFleet registers fleetM snapshotted modules and drives open-loop
// Zipf(1.3) traffic over HTTP, unbounded and then under a budget a quarter
// of the fleet's resident footprint, sampling heap-in-use through the run.
func runWarmFleet(o Options, fleetM, workers int, rate float64, dur time.Duration, out *warmFleetSection) (*Table, error) {
	bin, err := warmFleetModuleBin()
	if err != nil {
		return nil, err
	}
	// Per-module resident footprint (code + snapshot, no pools yet) from a
	// probe compile, used to size the budget relative to the fleet.
	probe, err := engine.CompileBinary(bin, abi.Registry(), engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsGuard})
	if err != nil {
		return nil, fmt.Errorf("warm fleet: probe compile: %w", err)
	}
	perMod := probe.ResidentBytes()
	if probe.SnapshotBytes() == 0 {
		return nil, fmt.Errorf("warm fleet: module did not snapshot")
	}
	budget := int64(fleetM) * perMod / 4

	const zipfS = 1.3
	out.Modules = fleetM
	out.ZipfS = zipfS
	out.RatePerSec = rate
	out.DurationMS = dur.Milliseconds()
	out.Workers = workers
	out.PerModBytes = perMod

	// One shared Zipf rank schedule: both modes see the identical arrival
	// sequence, so the goodput ratio isolates the cache, not the draw.
	sched := make([]int, 1<<16)
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), zipfS, 1, uint64(fleetM-1))
	for i := range sched {
		sched[i] = int(zipf.Uint64())
	}
	payload := []byte{9, 0, 0, 0, 0, 0, 0, 0}

	modes := []struct {
		Name   string
		Budget int64
	}{
		{"unbounded", 0},
		{"budgeted", budget},
	}
	tbl := &Table{
		ID: "warm-fleet",
		Title: fmt.Sprintf("Fleet economics: %d snapshotted modules, open-loop Zipf(s=%.1f) at %.0f req/s for %v",
			fleetM, zipfS, rate, dur),
		Headers: []string{"mode", "budget", "register", "goodput req/s", "p50", "p99",
			"heap peak", "steady rss", "pool purges", "snap drops", "body drops", "recompiles"},
		Notes: []string{
			fmt.Sprintf("budget = fleet resident footprint / 4 (%d modules x %d B); both modes replay the identical Zipf arrival order;", fleetM, perMod),
			"steady rss is mean heap-in-use over the run's last third vs its middle third (~1.0 = flat);",
			"every 200 response is validated against the module's reference reply, so a demotion or revive that corrupted state fails the run",
		},
	}

	for _, mode := range modes {
		entry, err := runWarmFleetMode(o, bin, fleetM, workers, rate, dur, mode.Budget, sched, payload)
		if err != nil {
			return nil, fmt.Errorf("warm fleet %s: %w", mode.Name, err)
		}
		entry.Mode = mode.Name
		out.Modes = append(out.Modes, entry)
		o.logf("warm fleet: %s goodput=%.0f req/s p99=%v heap-peak=%dMB",
			mode.Name, entry.GoodputRPS, time.Duration(entry.P99NS), entry.HeapPeakBytes>>20)
		// Let the previous mode's fleet actually die before the next heap
		// samples are taken.
		runtime.GC()
	}
	if g := out.Modes[0].GoodputRPS; g > 0 {
		out.GoodputRatio = out.Modes[1].GoodputRPS / g
	}

	for _, e := range out.Modes {
		budgetCell := "unbounded"
		if e.BudgetBytes >= 1<<20 {
			budgetCell = fmt.Sprintf("%dMB", e.BudgetBytes>>20)
		} else if e.BudgetBytes > 0 {
			budgetCell = fmt.Sprintf("%dKB", e.BudgetBytes>>10)
		}
		var purges, snaps, bodies, recompiles uint64
		if e.Cache != nil {
			purges, snaps = e.Cache.PurgedIdle, e.Cache.DroppedSnapshots
			bodies, recompiles = e.Cache.DroppedBodies, e.Cache.ColdRecompiles
		}
		tbl.Rows = append(tbl.Rows, []string{
			e.Mode, budgetCell,
			time.Duration(e.RegisterTotalNS).String(),
			fmt.Sprintf("%.0f", e.GoodputRPS),
			time.Duration(e.P50NS).String(),
			time.Duration(e.P99NS).String(),
			fmt.Sprintf("%dMB", e.HeapPeakBytes>>20),
			fmt.Sprintf("%.2f", e.SteadyRSSRatio),
			fmt.Sprint(purges), fmt.Sprint(snaps),
			fmt.Sprint(bodies), fmt.Sprint(recompiles),
		})
	}
	return tbl, nil
}

func runWarmFleetMode(o Options, bin []byte, fleetM, workers int, rate float64,
	dur time.Duration, budget int64, sched []int, payload []byte) (warmFleetEntry, error) {
	entry := warmFleetEntry{BudgetBytes: budget}
	rt, url, err := serveNode(core.Config{
		Workers:           workers,
		CacheBudgetBytes:  budget,
		CacheScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return entry, err
	}
	defer rt.Close()

	names := make([]string, fleetM)
	regStart := time.Now()
	for i := range names {
		names[i] = fmt.Sprintf("w%05d", i)
		if _, err := rt.RegisterWasm(names[i], bin, "main"); err != nil {
			return entry, fmt.Errorf("register %s: %w", names[i], err)
		}
	}
	entry.RegisterTotalNS = time.Since(regStart).Nanoseconds()
	entry.RegisterPerModNS = entry.RegisterTotalNS / int64(fleetM)

	// Reference reply: every module is the same program, so one invoke pins
	// the expected byte for the whole fleet.
	want, err := rt.Invoke(names[0], payload)
	if err != nil {
		return entry, fmt.Errorf("reference invoke: %w", err)
	}

	base := url + "/"
	targetFn := func(i int) string { return base + names[sched[i%len(sched)]] }
	validate := func(body []byte) error {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("reply %x, want %x", body, want)
		}
		return nil
	}

	// Settle the registration storm's garbage, then warm both the HTTP path
	// and the hot set before measuring, so neither mode's goodput is taxed
	// by the storm's GC debt or cold connections.
	runtime.GC()
	if _, err := loadgen.Run(loadgen.Options{
		TargetFn: targetFn, Body: payload, Validate: validate,
		Rate: rate / 2, Duration: dur / 3, MaxOutstanding: 256, Timeout: 10 * time.Second,
	}); err != nil {
		return entry, fmt.Errorf("warmup: %w", err)
	}

	// Heap sampler: heap-in-use every 20ms for the duration of the load run.
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				entry.HeapSamples = append(entry.HeapSamples, int64(ms.HeapInuse))
			}
		}
	}()

	res, err := loadgen.Run(loadgen.Options{
		TargetFn:       targetFn,
		Body:           payload,
		Rate:           rate,
		Duration:       dur,
		MaxOutstanding: 256,
		Timeout:        10 * time.Second,
		Validate:       validate,
	})
	close(samplerStop)
	<-samplerDone
	if err != nil {
		return entry, err
	}

	entry.Issued = res.Issued
	entry.Errors = res.Errors
	entry.GoodputRPS = res.GoodputRPS
	entry.P50NS = res.Summary.P50.Nanoseconds()
	entry.P99NS = res.Summary.P99.Nanoseconds()
	if s := entry.HeapSamples; len(s) >= 6 {
		mean := func(xs []int64) float64 {
			var sum int64
			for _, x := range xs {
				sum += x
			}
			return float64(sum) / float64(len(xs))
		}
		mid := mean(s[len(s)/3 : 2*len(s)/3])
		last := mean(s[2*len(s)/3:])
		if mid > 0 {
			entry.SteadyRSSRatio = last / mid
		}
	} else {
		entry.SteadyRSSRatio = 1
	}
	for _, h := range entry.HeapSamples {
		entry.HeapPeakBytes = max(entry.HeapPeakBytes, h)
	}
	if n := len(entry.HeapSamples); n > 0 {
		entry.HeapEndBytes = entry.HeapSamples[n-1]
	}
	if cs, ok := rt.CacheStats(); ok {
		entry.Cache = &cs
	}
	return entry, nil
}
