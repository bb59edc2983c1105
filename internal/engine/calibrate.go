package engine

import (
	"sync"
	"time"

	"sledge/internal/wasm"
)

// calKey identifies one execution configuration for fuel calibration. Only
// the dimensions that change gas throughput participate: the tier and the
// metering mode (block-metered loops execute more gas per
// wall-millisecond than the per-dispatch-checked ablation). Bounds
// strategies differ by a few percent on memory-heavy code but share the
// dispatch loop, so they are not split (the quantum is a preemption bound,
// not an accounting unit).
type calKey struct {
	tier         Tier
	noBlockMeter bool
}

var (
	calMu    sync.Mutex
	calRates = make(map[calKey]int64)
)

// CalibrateFuelRateFor measures the gas throughput of cfg's execution
// configuration in gas per millisecond. The scheduler multiplies this by
// its quantum to convert the paper's time-slice (5 ms) into deterministic
// fuel (fuel and gas share units: one fuel pays one gas of static charge).
// The rate is a property of the execution configuration: the naive tier is
// an order of magnitude slower than the optimized tier, and per-dispatch
// metering slower than block metering — so converting one shared rate
// through the quantum would hand different configurations materially
// different wall-clock slices. Each (tier, metering mode) pair is measured
// separately and cached for the process lifetime.
func CalibrateFuelRateFor(cfg Config) int64 {
	key := calKey{tier: cfg.Tier, noBlockMeter: cfg.NoBlockMeter}
	if key.tier == 0 {
		key.tier = TierOptimized
	}
	calMu.Lock()
	defer calMu.Unlock()
	if rate, ok := calRates[key]; ok {
		return rate
	}
	rate := measureFuelRate(Config{Tier: key.tier, NoBlockMeter: key.noBlockMeter})
	calRates[key] = rate
	return rate
}

// CalibrateFuelRate measures the default configuration (optimized tier,
// block metering).
func CalibrateFuelRate() int64 {
	return CalibrateFuelRateFor(Config{})
}

func measureFuelRate(cfg Config) int64 {
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{
		Params:  []wasm.ValType{wasm.ValI32},
		Results: []wasm.ValType{wasm.ValI32},
	}}
	m.Funcs = []wasm.Func{{
		TypeIdx: 0,
		Locals:  []wasm.ValType{wasm.ValI32},
		Name:    "spin",
		Body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Eqz},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Sub},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, Imm: 1},
		},
	}}
	m.Exports = []wasm.Export{{Name: "spin", Kind: wasm.ExternFunc, Index: 0}}
	cm, err := Compile(m, nil, cfg)
	if err != nil {
		return 50_000 // conservative fallback: 50M gas/s
	}
	const iters = 200_000
	in := cm.Instantiate()
	start := time.Now()
	if _, err := in.Invoke("spin", iters); err != nil {
		return 50_000
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 50_000
	}
	perMS := int64(float64(in.Gas) / (float64(elapsed) / float64(time.Millisecond)))
	if perMS < 1000 {
		perMS = 1000
	}
	return perMS
}
