package engine

import (
	"testing"
	"time"

	"sledge/internal/wasm"
)

// spinModule builds the calibration kernel: spin(n) runs a counted loop of
// ~12 instructions per iteration.
func spinModule(t *testing.T, cfg Config) *CompiledModule {
	t.Helper()
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
	return mustCompile(t, m, cfg)
}

// TestCalibrateFuelRatePerConfig pins the per-configuration calibration
// surface: every (tier, metering mode) pair yields a positive rate, repeat
// calls hit the cache, and the analysis flag does not split the key — the
// cheap tiering rung (NoAnalysis) runs the same register loop the default
// configuration measures.
func TestCalibrateFuelRatePerConfig(t *testing.T) {
	cfgs := []Config{
		{},                    // optimized, block-metered
		{NoBlockMeter: true},  // optimized, per-dispatch metering
		{Tier: TierNaive},     // naive
		{Tier: TierOptimized}, // explicit tier == default
		{NoAnalysis: true},    // cheap rung: must fold onto the default
	}
	for _, cfg := range cfgs {
		r1 := CalibrateFuelRateFor(cfg)
		if r1 < 1000 {
			t.Errorf("%+v: rate %d below the calibration floor", cfg, r1)
		}
		if r2 := CalibrateFuelRateFor(cfg); r2 != r1 {
			t.Errorf("%+v: calibration not cached: %d then %d", cfg, r1, r2)
		}
	}
	if a, b := CalibrateFuelRateFor(Config{}),
		CalibrateFuelRateFor(Config{NoAnalysis: true}); a != b {
		t.Errorf("rate split on the analysis flag: %d vs %d", a, b)
	}
	if a, b := CalibrateFuelRateFor(Config{}),
		CalibrateFuelRateFor(Config{Tier: TierOptimized}); a != b {
		t.Errorf("zero tier and explicit TierOptimized calibrated separately: %d vs %d", a, b)
	}
	if CalibrateFuelRate() != CalibrateFuelRateFor(Config{}) {
		t.Error("CalibrateFuelRate diverged from the default configuration")
	}
}

// TestQuantumWallClockTolerance converts the paper's 5 ms quantum through
// each configuration's calibrated rate and checks that burning that much
// fuel actually takes on the order of 5 ms of wall clock — the property the
// scheduler depends on for temporal isolation. The cheap tiering rung shares
// the default configuration's rate, so it is checked against that rate; the
// tolerance here is deliberately loose (5x either way) so only a broken
// calibration, not scheduler-grade jitter, fails the test.
func TestQuantumWallClockTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	const quantum = 5 * time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"register", Config{}},
		{"cheap", Config{NoAnalysis: true}},
	} {
		rate := CalibrateFuelRateFor(tc.cfg)
		fuel := rate * int64(quantum/time.Millisecond)
		cm := spinModule(t, tc.cfg)

		// Best-of-N to shed scheduler noise; the assertion is on the
		// fastest observed slice.
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			in := cm.Instantiate()
			// Far more iterations than one quantum can retire, so Run must
			// stop on fuel, not completion.
			if err := in.Start("spin", 1<<30); err != nil {
				t.Fatalf("%s: Start: %v", tc.name, err)
			}
			start := time.Now()
			st, err := in.Run(fuel)
			elapsed := time.Since(start)
			if st != StatusYielded {
				t.Fatalf("%s: quantum run ended with %v (%v), want yield", tc.name, st, err)
			}
			if elapsed < best {
				best = elapsed
			}
		}
		if best < quantum/5 || best > quantum*5 {
			t.Errorf("%s: %v of fuel burned in %v, outside [%v, %v]",
				tc.name, quantum, best, quantum/5, quantum*5)
		}
		t.Logf("%s: rate %d instr/ms, 5 ms quantum ran %v", tc.name, rate, best)
	}
}
