package experiments

import (
	"fmt"
	"math"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/stats"
)

// meterSliceFuel is the preemption quantum: each Run slice gets this much
// gas, so a kernel burning hundreds of millions of gas is preempted and
// resumed hundreds of times — the regime where metering cost shows up, and
// the regime the scheduler actually runs in.
const meterSliceFuel = 1 << 20

// meterEntry is one kernel row of the metering ablation.
type meterEntry struct {
	Name         string  `json:"name"`
	N            int     `json:"n,omitempty"`
	BlockNS      int64   `json:"block_ns_per_op"`
	PerInstrNS   int64   `json:"per_instr_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	Gas          uint64  `json:"gas"`
	Slices       int     `json:"slices"`
	ChargePoints int     `json:"charge_points"`
	MaxBlockCost int     `json:"max_block_cost"`
}

// meterSnapshot is the machine-readable BENCH_meter.json payload.
type meterSnapshot struct {
	snapHeader
	SliceFuel int64        `json:"slice_fuel"`
	Polybench []meterEntry `json:"polybench"`
	Geomean   float64      `json:"polybench_geomean_speedup"`
}

// runMeterSliced drives one instance to completion under the preemptive
// policy — fixed-fuel slices, resuming on every yield — and returns the
// checksum, total gas, and slice count.
func runMeterSliced(cm *engine.CompiledModule, n int) (float64, uint64, int, error) {
	inst := cm.Acquire()
	inst.HostData = abi.NewContext(nil)
	if err := inst.Start("kernel", uint64(uint32(n))); err != nil {
		return 0, 0, 0, err
	}
	slices := 0
	for {
		st, err := inst.Run(meterSliceFuel)
		if err != nil {
			return 0, 0, 0, err
		}
		slices++
		switch st {
		case engine.StatusDone:
			bits, err := inst.Result()
			if err != nil {
				return 0, 0, 0, err
			}
			gas := inst.Gas
			cm.Release(inst)
			return math.Float64frombits(bits), gas, slices, nil
		case engine.StatusYielded:
		default:
			return 0, 0, 0, fmt.Errorf("meter: unexpected status %s", st)
		}
	}
}

// RunMeterAblation measures what basic-block fuel metering buys over the
// per-instruction oracle: both configurations run the PolyBench suite to
// completion under the preemptive policy (fixed-fuel slices, resume on
// yield), differing only in NoBlockMeter. Per-instruction metering pays a
// fuel check and decrement on every dispatch; block metering pays one
// amortized iGasCharge per region, so loop bodies below MaxUncharged carry
// no metering work at all on the back edge. Gas must be bit-identical
// between the two modes — it is the same static charge stream — so the
// ablation isolates pure check overhead. With Options.SnapshotPath set it
// also writes the BENCH_meter.json snapshot.
func RunMeterAblation(o Options) ([]*Table, error) {
	iters := 5
	if o.Quick {
		iters = 2
	}
	blockCfg := engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsGuard}
	instrCfg := blockCfg
	instrCfg.NoBlockMeter = true

	snap := meterSnapshot{SliceFuel: meterSliceFuel}
	snap.Description = "Basic-block fuel metering ablation under the preemptive policy (fixed-fuel slices, BoundsGuard): block metering charges whole regions at static charge points (loop headers, call sites, MaxUncharged splits) with no per-dispatch fuel check; NoBlockMeter is the per-instruction oracle. Gas is bit-identical across both. make bench-meter"

	var speedups []float64
	for _, k := range o.kernels() {
		n := o.size(k)
		want := k.Native(n)
		// Both modes run interleaved; each records the gas and slice count
		// of its latest run.
		var (
			cms    [2]*engine.CompiledModule
			gas    [2]uint64
			slices [2]int
			runs   [2]func() error
		)
		for i, cfg := range []engine.Config{blockCfg, instrCfg} {
			cm, err := k.Compile(n, cfg)
			if err != nil {
				return nil, fmt.Errorf("meter: %s: %w", k.Name, err)
			}
			cms[i] = cm
			runs[i] = func() error {
				got, g, s, err := runMeterSliced(cm, n)
				if err != nil {
					return err
				}
				if !closeEnough(got, want) {
					return fmt.Errorf("%s: checksum %v != native %v", k.Name, got, want)
				}
				gas[i], slices[i] = g, s
				return nil
			}
		}
		medians, err := interleavedMedians(iters, runs[:]...)
		if err != nil {
			return nil, err
		}
		blockD, instrD := medians[0], medians[1]
		if gas[0] != gas[1] {
			return nil, fmt.Errorf("meter: %s: gas diverged between metering modes: block %d, per-instr %d",
				k.Name, gas[0], gas[1])
		}
		sp := float64(instrD) / float64(blockD)
		speedups = append(speedups, sp)
		an := cms[0].Analysis()
		snap.Polybench = append(snap.Polybench, meterEntry{
			Name: k.Name, N: n,
			BlockNS: blockD.Nanoseconds(), PerInstrNS: instrD.Nanoseconds(),
			Speedup: sp, Gas: gas[0], Slices: slices[0],
			ChargePoints: an.ChargePoints, MaxBlockCost: an.MaxBlockCost,
		})
		o.logf("meter: %s n=%d block=%v per-instr=%v (%.2fx) gas=%d slices=%d",
			k.Name, n, blockD, instrD, sp, gas[0], slices[0])
	}
	if len(speedups) == 0 {
		return nil, fmt.Errorf("meter: no kernels selected")
	}
	snap.Geomean = stats.GeoMean(speedups)
	snap.Acceptance = fmt.Sprintf(
		"PolyBench geomean speedup floor 1.0 under the preemptive policy (measured: %.3f, quick=%v); gas bit-identical between metering modes on every kernel",
		snap.Geomean, o.Quick)

	tbl := &Table{
		ID:      "meter",
		Title:   "Block fuel metering vs per-instruction oracle (preemptive slices, BoundsGuard)",
		Headers: []string{"kernel", "block", "per-instr", "speedup", "slices"},
		Notes: []string{
			fmt.Sprintf("PolyBench geomean speedup: %.3fx over %d kernels", snap.Geomean, len(speedups)),
			fmt.Sprintf("slice fuel %d gas; block mode checks fuel only at charge points, per-instruction mode on every dispatch", int64(meterSliceFuel)),
			"gas verified bit-identical between modes on every kernel",
		},
	}
	for _, e := range snap.Polybench {
		tbl.Rows = append(tbl.Rows, []string{
			e.Name,
			time.Duration(e.BlockNS).String(),
			time.Duration(e.PerInstrNS).String(),
			fmt.Sprintf("%.2fx", e.Speedup),
			fmt.Sprintf("%d", e.Slices),
		})
	}

	if err := o.writeSnapshot("meter", &snap); err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}
