package core

// Adaptive tiering: profile-guided background recompilation with atomic
// module swap.
//
// Registering a module under the full engine pipeline (static analysis,
// fused lowering, register allocation) makes every new function pay the
// whole compile cost before it can serve its first request — the cold-
// register cliff a fleet of thousands of rarely-invoked tenants cannot
// afford. With tiering enabled, Register* compiles only the cheap rung of
// the ladder (engine.NewLadder), the completion path of every request feeds
// a per-module hotness profile (invocation count + cumulative retired
// instructions), and the promotion controller below recompiles hot modules
// at the full rung in the background, atomically swapping the new
// CompiledModule into the Module. In-flight invocations keep running the
// code they loaded at dispatch; the old form's instance pool drains as they
// finish and is garbage-collected.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/engine"
)

// TieringMode selects how the tier ladder behaves.
type TieringMode int

// Tiering modes.
const (
	// TierAdaptive registers modules at the cheap rung and promotes hot
	// ones to the full rung in the background (the default).
	TierAdaptive TieringMode = iota + 1
	// TierStatic preserves the pre-tiering behaviour: every module is
	// compiled with the full engine configuration at registration and no
	// promotion controller runs (the ablation baseline and the disable
	// knob).
	TierStatic
	// TierCheapOnly registers at the cheap rung and never promotes (the
	// cheap-forever ablation: what adaptive would cost if the controller
	// never ran).
	TierCheapOnly
)

// String names the mode for stats and experiment tables.
func (m TieringMode) String() string {
	switch m {
	case TierAdaptive:
		return "adaptive"
	case TierStatic:
		return "static"
	case TierCheapOnly:
		return "cheap-only"
	}
	return fmt.Sprintf("tiering(%d)", int(m))
}

// TieringConfig configures adaptive tiering. The zero value of each field
// selects the documented default; set Config.Tiering to nil (or Mode to
// TierStatic) to keep the static full-tier-at-registration behaviour.
type TieringConfig struct {
	// Mode selects adaptive promotion, the static ablation, or the
	// cheap-forever ablation. Default TierAdaptive.
	Mode TieringMode
	// HotInvocations promotes a module once its completed-invocation count
	// reaches this threshold. Default 64.
	HotInvocations uint64
	// HotGas promotes a module once its cumulative gas (deterministic
	// charge-point execution cost) reaches this threshold, so a module
	// invoked rarely but burning real CPU still tiers up. Gas is identical
	// across the ladder's rungs, so the hotness signal does not shift when
	// a module is promoted. Default 16Mi gas.
	HotGas uint64
	// Interval is the promotion controller's scan period. Default 25ms.
	Interval time.Duration
	// MaxConcurrent caps recompilations in flight so tier-up compilation
	// never starves the worker cores. Default 1.
	MaxConcurrent int
	// OnPromote, if set, is called after each successful promotion with
	// the module name and the recompile wall time (tests, experiments).
	// It runs on the controller's recompile goroutine and must not block.
	OnPromote func(module string, recompile time.Duration)
}

func (c TieringConfig) withDefaults() TieringConfig {
	if c.Mode == 0 {
		c.Mode = TierAdaptive
	}
	if c.HotInvocations == 0 {
		c.HotInvocations = 64
	}
	if c.HotGas == 0 {
		c.HotGas = 16 << 20
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	return c
}

// profile is the per-module hotness profile: invocation count and
// cumulative gas, bumped on the completion path of every request. The
// counters are padded onto their own cache line so the write-hot atomics do
// not false-share with the module's read-mostly fields (the compiled-module
// pointer, name, entry) that every concurrent invoke loads.
type profile struct {
	_           [64]byte
	invocations atomic.Uint64
	gas         atomic.Uint64
	_           [48]byte
}

// Module promotion states (Module.tier). The machine is one-way — once a
// module leaves tierCheap toward promotion it can never be recompiled a
// second time — which is what bounds recompile churn regardless of how the
// hotness signal oscillates.
const (
	// tierIdle: not a ladder participant (static mode, precompiled
	// registration, or an unanalyzed engine config with nothing to
	// promote).
	tierIdle int32 = iota
	// tierCheap: cheap rung installed, candidate for promotion.
	tierCheap
	// tierPending: observed hot on one scan; awaiting the confirming scan
	// (hysteresis).
	tierPending
	// tierPromoting: background recompile in flight.
	tierPromoting
	// tierPromoted: full rung installed.
	tierPromoted
	// tierFailed: recompile failed; the cheap form keeps serving and the
	// module is never retried.
	tierFailed
	// tierCold: the bounded cache dropped the compiled body (cache.go).
	// The state is parked here with a CAS from any stable state, which
	// locks the promotion controller out (its CAS transitions fail);
	// Runtime.revive moves the module back to tierCheap (adaptive mode) or
	// tierIdle when the next invoke recompiles it. A revived module can be
	// promoted again, so the promote-at-most-once bound becomes
	// promote-at-most-once per residency epoch.
	tierCold
)

// tieringActive reports whether modules register at the cheap rung.
func (rt *Runtime) tieringActive() bool {
	return rt.cfg.Tiering != nil && rt.tiering.Mode != TierStatic && !rt.ladder.Static()
}

// startTiering launches the promotion controller (adaptive mode only).
func (rt *Runtime) startTiering() {
	rt.tierStop = make(chan struct{})
	rt.tierDone = make(chan struct{})
	go rt.promoteLoop()
}

// stopTiering shuts the controller down and waits for in-flight recompiles.
func (rt *Runtime) stopTiering() {
	if rt.tierStop == nil {
		return
	}
	rt.tierStopOnce.Do(func() { close(rt.tierStop) })
	<-rt.tierDone
}

// promoteLoop is the background tier-up controller: every Interval it scans
// the registry for hot cheap-rung modules and recompiles them at the full
// rung, at most MaxConcurrent at a time.
func (rt *Runtime) promoteLoop() {
	defer close(rt.tierDone)
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, rt.tiering.MaxConcurrent)
	ticker := time.NewTicker(rt.tiering.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.tierStop:
			return
		case <-ticker.C:
		}
		rt.mu.RLock()
		mods := make([]*Module, 0, len(rt.registry))
		for _, m := range rt.registry {
			mods = append(mods, m)
		}
		rt.mu.RUnlock()
		for _, m := range mods {
			rt.scanModule(m, sem, &wg)
		}
	}
}

// scanModule advances one module's promotion state machine. Only the
// controller goroutine calls it, so the pending-confirmation bookkeeping
// (lastScanInv) is single-writer.
func (rt *Runtime) scanModule(m *Module, sem chan struct{}, wg *sync.WaitGroup) {
	inv := m.prof.invocations.Load()
	hot := inv >= rt.tiering.HotInvocations ||
		m.prof.gas.Load() >= rt.tiering.HotGas
	switch m.tier.Load() {
	case tierCheap:
		if hot {
			m.tier.CompareAndSwap(tierCheap, tierPending)
			m.lastScanInv = inv
		}
	case tierPending:
		// Hysteresis: the recompile is only confirmed on a later scan, and
		// only while the module is still receiving traffic. A burst that
		// crossed the threshold and went quiet parks here — crossing the
		// threshold repeatedly cannot queue more than this one promotion,
		// and the moment traffic resumes the module tiers up.
		if !hot || inv == m.lastScanInv {
			m.lastScanInv = inv
			return
		}
		select {
		case sem <- struct{}{}:
		default:
			return // concurrency cap reached; retry next scan
		}
		if !m.tier.CompareAndSwap(tierPending, tierPromoting) {
			<-sem
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rt.promote(m)
		}()
	}
}

// promote recompiles m's retained binary at the full rung and atomically
// swaps the result in. The caller must have moved m.tier to tierPromoting.
func (rt *Runtime) promote(m *Module) {
	start := time.Now()
	cm, err := engine.CompileBinary(m.source, rt.hostReg, rt.ladder.Full)
	if err != nil {
		// The cheap form keeps serving; record the failure and never retry
		// (the binary will not compile differently next scan).
		m.tier.Store(tierFailed)
		rt.recompileFailures.Add(1)
		return
	}
	d := time.Since(start)
	// Identity-check and swap under the registry lock: Replace holds the
	// write lock while it installs a new Module under this name, so either
	// the swap lands strictly before the replacement (and is then shadowed
	// by it) or the check observes the replacement and discards the compile.
	// Installing without the check would resurrect the retired deployment's
	// code, keep its recompiled form (and instance pool) alive under the new
	// registration's name, and the ResetEstimate below would wipe the *new*
	// deployment's admission state.
	rt.mu.RLock()
	cur, registered := rt.registry[m.Name]
	if !registered || cur != m {
		rt.mu.RUnlock()
		// Discarded: the fresh form and its instance pool are unreferenced
		// and collect; this handle retires from the ladder.
		m.tier.Store(tierIdle)
		return
	}
	old := m.Compiled()
	m.swapCompiled(cm)
	rt.mu.RUnlock()
	if old != nil {
		// The cheap rung is retired for good; close its pool so the idle
		// slabs die with the swap, not with the garbage collector's
		// opinion of the last in-flight reference.
		old.ClosePool()
	}
	m.recompileNanos.Store(int64(d))
	m.promotions.Add(1)
	m.tier.Store(tierPromoted)
	rt.promotions.Add(1)
	rt.recompileTotalNanos.Add(int64(d))
	if rt.adm != nil {
		// The module's service time just changed discontinuously; drop the
		// cheap-tier estimate (keeping the breaker — the recompiled code is
		// semantically identical) so the next requests are not shed on
		// stale numbers.
		rt.adm.ResetEstimate(m.Name)
	}
	if cb := rt.tiering.OnPromote; cb != nil {
		cb(m.Name, d)
	}
}

// Promote synchronously recompiles the named module at the full rung and
// swaps it in, regardless of hotness — the operator/test path for forcing a
// tier-up. It is a no-op for modules already promoted and an error for
// modules that are not ladder candidates (static registration, precompiled,
// or a prior failed recompile).
func (rt *Runtime) Promote(name string) error {
	m, ok := rt.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoModule, name)
	}
	for {
		switch st := m.tier.Load(); st {
		case tierCheap, tierPending:
			if !m.tier.CompareAndSwap(st, tierPromoting) {
				continue
			}
			rt.promote(m)
			if m.tier.Load() == tierFailed {
				return fmt.Errorf("core: promote %s: recompile failed", name)
			}
			return nil
		case tierPromoting:
			// The controller is already recompiling; treat as done — the
			// swap is imminent and forcing a second compile would violate
			// the promote-at-most-once contract.
			return nil
		case tierPromoted:
			return nil
		default:
			return fmt.Errorf("core: promote %s: module is not a tier-ladder candidate", name)
		}
	}
}

// swapCompiled atomically installs a recompiled form. In-flight invocations
// hold the pointer they loaded at dispatch and finish on the old code; its
// instance pool quiesces with them. The tier-epoch latency accounting resets
// so the admission seed estimate (seedLatency) describes the installed code,
// not the retired rung.
func (m *Module) swapCompiled(cm *engine.CompiledModule) {
	m.cm.Store(cm)
	m.epochInvocations.Store(0)
	m.epochNanos.Store(0)
}

// TieringSnapshot is the controller's accounting view, exposed via /__stats.
type TieringSnapshot struct {
	Mode              string        `json:"mode"`
	CheapTier         string        `json:"cheap_tier"`
	Promotions        uint64        `json:"promotions"`
	RecompileFailures uint64        `json:"recompile_failures"`
	TotalRecompile    time.Duration `json:"total_recompile_ns"`
	Candidates        int           `json:"candidates"`
	Pending           int           `json:"pending"`
	Promoting         int           `json:"promoting"`
	Promoted          int           `json:"promoted"`
	Cold              int           `json:"cold"`
}

// TieringStats returns the tiering snapshot; ok is false when tiering is
// not configured.
func (rt *Runtime) TieringStats() (TieringSnapshot, bool) {
	if rt.cfg.Tiering == nil {
		return TieringSnapshot{}, false
	}
	snap := TieringSnapshot{
		Mode:              rt.tiering.Mode.String(),
		Promotions:        rt.promotions.Load(),
		RecompileFailures: rt.recompileFailures.Load(),
		TotalRecompile:    time.Duration(rt.recompileTotalNanos.Load()),
	}
	snap.CheapTier = engine.TierLabelCheap
	if rt.ladder.Static() {
		snap.CheapTier = engine.TierLabelFull
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, m := range rt.registry {
		switch m.tier.Load() {
		case tierCheap:
			snap.Candidates++
		case tierPending:
			snap.Pending++
		case tierPromoting:
			snap.Promoting++
		case tierPromoted:
			snap.Promoted++
		case tierCold:
			snap.Cold++
		}
	}
	return snap, true
}
