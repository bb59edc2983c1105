package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/wcc"
)

// diffConfigs is the differential matrix: every explicit-check strategy
// crossed with the lowering axis — register form with analysis on (the
// default) and off (the cheap tiering rung), register form without the
// fusion peepholes, plus the naive tier as an independent implementation of
// the same semantics — and each of those
// crossed with both metering modes (block-metered and the per-instruction
// NoBlockMeter oracle). BoundsNone is excluded by design — it only faults
// beyond the backing array, so its trap set legitimately differs from the
// checked strategies.
func diffConfigs() []engine.Config {
	var cfgs []engine.Config
	for _, b := range []engine.BoundsStrategy{
		engine.BoundsGuard, engine.BoundsSoftware,
		engine.BoundsSoftwareFused, engine.BoundsMPX,
	} {
		for _, nbm := range []bool{false, true} {
			cfgs = append(cfgs,
				engine.Config{Bounds: b, Tier: engine.TierOptimized, NoBlockMeter: nbm},
				engine.Config{Bounds: b, Tier: engine.TierOptimized, NoAnalysis: true, NoBlockMeter: nbm},
				engine.Config{Bounds: b, Tier: engine.TierOptimized, NoFusion: true, NoBlockMeter: nbm},
				engine.Config{Bounds: b, Tier: engine.TierNaive, NoBlockMeter: nbm},
			)
		}
	}
	return cfgs
}

// diffOutcome runs one config to a canonical outcome string — done+result,
// trap+code, or the bounded-execution statuses — plus the gas the run
// charged. Any panic escaping the VM is a host-integrity failure, reported
// via t.
func diffOutcome(t *testing.T, m *wasm.Module, cfg engine.Config, arg uint64) (string, uint64) {
	t.Helper()
	cm, err := engine.Compile(m, abi.Registry(), cfg)
	if err != nil {
		return "compile-error", 0
	}
	var out string
	var gas uint64
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s/%s noanalysis=%v nofusion=%v nbm=%v: host panic: %v",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoFusion, cfg.NoBlockMeter, r)
			}
		}()
		inst := cm.Instantiate()
		inst.HostData = abi.NewContext(nil)
		if err := inst.Start("main", arg); err != nil {
			// Signature mismatch with the fuzzed arg count: retry with none.
			if err2 := func() error {
				inst = cm.Instantiate()
				inst.HostData = abi.NewContext(nil)
				return inst.Start("main")
			}(); err2 != nil {
				out = "start-error"
				return
			}
		}
		st, err := inst.Run(2_000_000)
		gas = inst.Gas
		switch st {
		case engine.StatusDone:
			v, _ := inst.Result()
			out = fmt.Sprintf("done:%#x", v)
		case engine.StatusTrapped:
			var trap *engine.Trap
			if errors.As(err, &trap) {
				if trap.Code == engine.TrapFuelExhausted {
					// The naive tier surfaces the budget as a trap where
					// the optimized tier yields; both mean "still running".
					out = "bounded"
					return
				}
				out = "trap:" + trap.Code.String()
			} else {
				out = fmt.Sprintf("trap:%v", err)
			}
		case engine.StatusYielded:
			out = "bounded"
		case engine.StatusBlocked:
			out = "bounded"
		}
	}()
	return out, gas
}

// FuzzDifferentialElision cross-checks the static-analysis pipeline against
// the unanalyzed interpreter: for every module that decodes and validates,
// every bounds strategy with elision on, elision off, and the naive tier
// must produce the identical result or the identical trap. This is the
// soundness net for check elision, devirtualization, and stack
// certification.
func FuzzDifferentialElision(f *testing.F) {
	seeds := []string{
		// In-bounds constant walk: every check elided.
		`
static u8 buf[64];
export i32 main(i32 n) {
	i32 acc = 0;
	for (i32 i = 0; i < 64; i = i + 1) {
		buf[i] = i * 7;
		acc = acc + (i32) buf[i];
	}
	return acc;
}
`,
		// Attacker-controlled index: check must stay and trap.
		`
static i32 A[16];
export i32 main(i32 i) {
	A[i] = 42;
	return A[i];
}
`,
		// Bounded call chain: stack certification applies.
		`
static i32 A[8];
i32 leaf(i32 x) { return A[x % 8] + x; }
i32 mid(i32 x) { return leaf(x) + leaf(x + 1); }
export i32 main(i32 x) {
	A[0] = 3;
	return mid(x % 4);
}
`,
	}
	for _, src := range seeds {
		res, err := wcc.Compile(src, wcc.Options{})
		if err != nil {
			f.Fatalf("wcc seed: %v", err)
		}
		f.Add(res.Binary, uint64(0))
		f.Add(res.Binary, uint64(15))
		f.Add(res.Binary, uint64(1<<20))
	}
	// Start-section seed (WCC never emits one): init work that the
	// snapshot axis must reproduce — a memory fill plus a global bump.
	sm := wasm.NewModule()
	sm.Types = []wasm.FuncType{{}, {Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}}}
	sm.Memories = []wasm.Limits{{Min: 1, Max: 2, HasMax: true}}
	sm.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.ValI32, Mutable: true},
		Init: wasm.Instr{Op: wasm.OpI32Const, Imm: 11},
	}}
	sm.Funcs = []wasm.Func{
		{TypeIdx: 0, Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 8},
			{Op: wasm.OpI32Const, Imm: 77},
			{Op: wasm.OpI32Store, Imm2: 2},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 100},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpGlobalSet, Imm: 0},
		}, Name: "boot"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 8},
			{Op: wasm.OpI32And},
			{Op: wasm.OpI32Load, Imm2: 2},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Add},
		}, Name: "main"},
	}
	sm.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 1}}
	sm.Start = 0
	sbin, err := wasm.Encode(sm)
	if err != nil {
		f.Fatalf("start seed: %v", err)
	}
	f.Add(sbin, uint64(8))
	f.Fuzz(func(t *testing.T, bin []byte, arg uint64) {
		m, err := wasm.Decode(bin)
		if err != nil {
			return
		}
		if err := wasm.Validate(m); err != nil {
			return
		}
		cfgs := diffConfigs()
		if m.Start >= 0 {
			// Snapshot vs replay is a real execution-path axis only for
			// modules with a start section: cross the whole matrix with
			// NoSnapshot so snapshot-materialized runs are checked
			// bit-identical (result, trap, gas) against the replayed path.
			for _, cfg := range cfgs[:len(cfgs):len(cfgs)] {
				cfg.NoSnapshot = true
				cfgs = append(cfgs, cfg)
			}
		}
		outs := make([]string, len(cfgs))
		gases := make([]uint64, len(cfgs))
		for i, cfg := range cfgs {
			outs[i], gases[i] = diffOutcome(t, m, cfg, arg)
			if outs[i] == "bounded" {
				// Fuel-consumption granularity differs across metering
				// modes (per dispatch vs per charge point), so any config
				// still running at the budget makes the input incomparable
				// — the exhaustion outcome itself ("bounded") is the
				// charge-point-granularity comparison.
				return
			}
		}
		for i, cfg := range cfgs[1:] {
			if outs[i+1] != outs[0] {
				t.Fatalf("divergence: %s/%s noanalysis=%v nofusion=%v nbm=%v nosnap=%v = %q, reference %s/%s = %q",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoFusion, cfg.NoBlockMeter, cfg.NoSnapshot, outs[i+1],
					cfgs[0].Tier, cfgs[0].Bounds, outs[0])
			}
			// Gas is charged at static charge points on the source path, so
			// every config that ran the path to the same outcome — traps
			// included — must report bit-identical gas.
			if outs[i+1] != "compile-error" && outs[i+1] != "start-error" && gases[i+1] != gases[0] {
				t.Fatalf("gas divergence: %s/%s noanalysis=%v nofusion=%v nbm=%v nosnap=%v charged %d, reference %s/%s charged %d (outcome %q)",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoFusion, cfg.NoBlockMeter, cfg.NoSnapshot, gases[i+1],
					cfgs[0].Tier, cfgs[0].Bounds, gases[0], outs[0])
			}
		}
	})
}
