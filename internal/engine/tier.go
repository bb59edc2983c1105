package engine

// Adaptive-tiering support: the two-rung compile ladder and the tier label.
//
// Registration under adaptive tiering compiles only the cheap rung — the
// optimized tier with its expensive static-analysis pass disabled — so a new
// module can serve its first request without paying the full analysis cost.
// Both rungs run the same preemptible register loop. A background promotion
// controller (internal/core) later recompiles hot modules at the full rung
// and atomically swaps the CompiledModule.

// Ladder is the two-rung adaptive-tiering compile ladder derived from one
// engine configuration: Cheap is the registration rung, Full the promotion
// target. Both rungs share every semantic knob (bounds strategy, memory
// limits, nop injection), so a module produces bit-identical results on
// either rung; they differ only in how much compile-time work buys how much
// execution speed.
type Ladder struct {
	Cheap Config
	Full  Config
}

// NewLadder derives the ladder from the full-tier configuration: the cheap
// rung is the same configuration with NoAnalysis set. naiveStart selects
// TierNaive as the cheap rung instead; that rung cannot be preempted, so it
// exists only for engine-level comparisons — core.Runtime always passes
// false and refuses naive-tier code.
//
// A configuration that is already naive-tier or unanalyzed has nothing to
// promote to; its ladder has Cheap == Full and the promotion controller
// leaves such modules alone.
func NewLadder(full Config, naiveStart bool) Ladder {
	full = full.withDefaults()
	cheap := full
	switch {
	case full.Tier == TierNaive:
	case naiveStart:
		cheap.Tier = TierNaive
	default:
		cheap.NoAnalysis = true
	}
	return Ladder{Cheap: cheap, Full: full}
}

// Static reports whether the ladder has a single rung (nothing to promote).
func (l Ladder) Static() bool { return l.Cheap == l.Full }

// Tier-ladder rung labels reported by TierLabel and /__stats.
const (
	TierLabelNaive = "naive"
	TierLabelCheap = "cheap"
	TierLabelFull  = "full"
)

// TierLabel names the rung of the tier ladder this module was compiled at:
// "naive" (structured interpreter), "cheap" (register form without static
// analysis), or "full" (the fused + check-elided register form).
func (cm *CompiledModule) TierLabel() string {
	switch {
	case cm.cfg.Tier == TierNaive:
		return TierLabelNaive
	case cm.cfg.NoAnalysis:
		return TierLabelCheap
	default:
		return TierLabelFull
	}
}
