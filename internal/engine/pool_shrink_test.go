package engine

import (
	"sync"
	"testing"

	"sledge/internal/wasm"
)

// recModule builds rec(n) = n == 0 ? 0 : rec(n-1) + 1 with a handful of
// padding locals, so a deep call chain grows the pooled operand-stack slab
// far beyond the module's typical reservation. The recursion is unbounded
// in the call graph, so no stack certificate covers it and the VM takes the
// per-call growth path.
func recModule(t *testing.T, cfg Config) *CompiledModule {
	t.Helper()
	i32 := wasm.ValI32
	return mustCompile(t, buildModule(t, 0, fnDef{
		name: "rec", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
		locals: []wasm.ValType{i32, i32, i32, i32, i32, i32, i32, i32},
		body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpBrIf, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpReturn},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Sub},
			{Op: wasm.OpCall, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
		},
	}), cfg)
}

// TestPoolShrinksOversizedSlabs: one deep request must not pin its
// high-water stack/frame allocation in the pool. On release the slabs
// shrink back to the module's typical reservation, the shrunk instance is
// hygienically zero, and it remains fully functional.
func TestPoolShrinksOversizedSlabs(t *testing.T) {
	for _, cfg := range []Config{{}, {NoAnalysis: true}, {Tier: TierNaive}} {
		cm := recModule(t, cfg)
		if cm.typicalStack < 256 || cm.typicalFrames < 16 {
			t.Fatalf("%s: retention floors missing: stack %d frames %d",
				cfg.Tier, cm.typicalStack, cm.typicalFrames)
		}

		in := cm.Acquire()
		const depth = 400 // under MaxCallDepth, deep enough to grow the slab
		if v, err := in.Invoke("rec", depth); err != nil || v != depth {
			t.Fatalf("%s: rec(%d) = %d, %v", cfg.Tier, depth, v, err)
		}
		grew := len(in.stack) > 4*cm.typicalStack
		if cfg.Tier != TierNaive && !grew {
			// The naive tier keeps frames on the Go stack, so only the
			// optimized tiers are expected to balloon the slab.
			t.Fatalf("%s: rec(%d) left stack at %d slots (typical %d); test premise broken",
				cfg.Tier, depth, len(in.stack), cm.typicalStack)
		}
		cm.Release(in)

		got := cm.Acquire()
		if got != in {
			t.Fatalf("%s: expected the recycled instance back", cfg.Tier)
		}
		if grew {
			if len(got.stack) != cm.typicalStack {
				t.Errorf("%s: released stack is %d slots, want shrunk to %d",
					cfg.Tier, len(got.stack), cm.typicalStack)
			}
			if cap(got.frames) > 4*cm.typicalFrames {
				t.Errorf("%s: released frame slab kept cap %d, typical %d",
					cfg.Tier, cap(got.frames), cm.typicalFrames)
			}
		}
		for i, v := range got.stack {
			if v != 0 {
				t.Fatalf("%s: recycled stack slot %d = %#x, want 0", cfg.Tier, i, v)
			}
		}
		// Shallow release must keep the right-sized slab as is (and the
		// instance must still work after the shrink).
		if v, err := got.Invoke("rec", 3); err != nil || v != 3 {
			t.Fatalf("%s: rec(3) after shrink = %d, %v", cfg.Tier, v, err)
		}
		cm.Release(got)
		again := cm.Acquire()
		if len(again.stack) != cm.typicalStack && grew {
			t.Errorf("%s: shallow release resized the slab to %d (typical %d)",
				cfg.Tier, len(again.stack), cm.typicalStack)
		}
		cm.Release(again)
	}
}

// TestPoolShrinkHygieneRace drives concurrent acquire/invoke/release cycles
// with mixed depths over one module, so the race detector sees the shrink
// path interleaved with acquisition, and every handed-out instance must
// still satisfy the hygiene contract (zero stack, working invocation).
func TestPoolShrinkHygieneRace(t *testing.T) {
	cm := recModule(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				depth := uint64(3)
				if (i+seed)%5 == 0 {
					depth = 300 // the slab-growing case
				}
				in := cm.Acquire()
				for _, v := range in.stack {
					if v != 0 {
						t.Errorf("goroutine %d: dirty stack from pool", seed)
						return
					}
				}
				got, err := in.Invoke("rec", depth)
				if err != nil || got != depth {
					t.Errorf("goroutine %d: rec(%d) = %d, %v", seed, depth, got, err)
					return
				}
				cm.Release(in)
			}
		}(g)
	}
	wg.Wait()
}
