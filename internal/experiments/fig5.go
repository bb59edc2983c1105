package experiments

import (
	"fmt"
	"math"
	"time"

	"sledge/internal/engine"
	"sledge/internal/stats"
	"sledge/internal/workloads/polybench"
)

// RuntimeClass is one Wasm runtime configuration in the Fig. 5 comparison.
// The Sledge rows are the paper's own configurations; the *-class rows are
// the documented stand-ins for the external comparator runtimes (see
// DESIGN.md's substitution table): each maps the comparator's dominant
// mechanism difference onto explicit engine knobs.
type RuntimeClass struct {
	Name string
	Cfg  engine.Config
}

// Fig5Classes lists the runtime configurations in paper order.
var Fig5Classes = []RuntimeClass{
	{"Sledge+aWsm", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsGuard}},
	{"Sledge+aWsm-bounds-chk", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsSoftware}},
	{"Sledge+aWsm-mpx", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsMPX}},
	{"Sledge+aWsm-none", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsNone}},
	{"WAVM-class", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsSoftwareFused}},
	{"Node.js-class", engine.Config{Tier: engine.TierOptimized, Bounds: engine.BoundsSoftwareFused, PerInstrNops: 1, CallOverheadNops: 8}},
	{"Lucet-class", engine.Config{Tier: engine.TierNaive, Bounds: engine.BoundsSoftwareFused}},
	{"Wasmer-class", engine.Config{Tier: engine.TierNaive, Bounds: engine.BoundsSoftware, PerInstrNops: 3}},
}

// fig5Result holds per-kernel medians.
type fig5Result struct {
	kernels []string
	native  []time.Duration            // per kernel
	class   map[string][]time.Duration // class -> per kernel
}

func runFig5Table1(o Options) ([]*Table, error) {
	iters := 5
	if o.Quick {
		iters = 1
	}
	data := &fig5Result{class: make(map[string][]time.Duration)}

	for _, k := range o.kernels() {
		n := o.size(k)
		data.kernels = append(data.kernels, k.Name)

		want := k.Native(n)
		fns := []func() error{func() error {
			if got := k.Native(n); !closeEnough(got, want) {
				return fmt.Errorf("%s: native diverged", k.Name)
			}
			return nil
		}}
		for _, rc := range Fig5Classes {
			cm, err := k.Compile(n, rc.Cfg)
			if err != nil {
				return nil, fmt.Errorf("fig5: %s/%s: %w", k.Name, rc.Name, err)
			}
			fns = append(fns, func() error {
				got, err := polybench.RunWasm(cm, n)
				if err != nil {
					return err
				}
				if !closeEnough(got, want) {
					return fmt.Errorf("%s/%s: checksum %v != native %v", k.Name, rc.Name, got, want)
				}
				return nil
			})
		}
		medians, err := interleavedMedians(iters, fns...)
		if err != nil {
			return nil, fmt.Errorf("fig5: %w", err)
		}
		data.native = append(data.native, medians[0])
		for i, rc := range Fig5Classes {
			data.class[rc.Name] = append(data.class[rc.Name], medians[1+i])
		}
		o.logf("fig5: %s done (n=%d)", k.Name, n)
	}

	fig5 := &Table{
		ID:    "fig5",
		Title: "PolyBench/C time normalized to native, per Wasm runtime configuration",
		Notes: []string{
			"native = mirrored Go implementation compiled by gc (the clang -O3 analog)",
			"absolute ratios are interpreter-scale; the paper-comparable quantity is the ordering and the config-vs-config ratios (Table 1)",
		},
	}
	fig5.Headers = append([]string{"benchmark"}, classNames()...)
	for i, name := range data.kernels {
		row := []string{name}
		for _, rc := range Fig5Classes {
			ratio := float64(data.class[rc.Name][i]) / float64(data.native[i])
			row = append(row, fmt.Sprintf("%.1fx", ratio))
		}
		fig5.Rows = append(fig5.Rows, row)
	}

	table1 := &Table{
		ID:    "table1",
		Title: "Slowdown summary per runtime (AM/GM/SD), two normalizations",
		Headers: []string{"runtime", "vs-native AM", "vs-native GM",
			"vs-unchecked AM%", "vs-unchecked GM%", "vs-unchecked SD"},
		Notes: []string{
			"vs-unchecked normalizes against Sledge+aWsm-none (no bounds checks), isolating sandboxing overhead as the paper's % slowdowns do",
			"AArch64/Raspberry Pi columns omitted: no ARM hardware in this reproduction (see EXPERIMENTS.md)",
		},
	}
	baseline := data.class["Sledge+aWsm-none"]
	for _, rc := range Fig5Classes {
		var vsNative, vsUnchecked []float64
		for i := range data.kernels {
			vsNative = append(vsNative, float64(data.class[rc.Name][i])/float64(data.native[i]))
			vsUnchecked = append(vsUnchecked, float64(data.class[rc.Name][i])/float64(baseline[i]))
		}
		pct := func(xs []float64, f func([]float64) float64) float64 { return (f(xs) - 1) * 100 }
		table1.Rows = append(table1.Rows, []string{
			rc.Name,
			fmt.Sprintf("%.1fx", stats.Mean(vsNative)),
			fmt.Sprintf("%.1fx", stats.GeoMean(vsNative)),
			fmt.Sprintf("%+.1f%%", pct(vsUnchecked, stats.Mean)),
			fmt.Sprintf("%+.1f%%", pct(vsUnchecked, stats.GeoMean)),
			fmt.Sprintf("%.2f", stats.StdDev(vsUnchecked)),
		})
	}
	return []*Table{fig5, table1}, nil
}

func classNames() []string {
	out := make([]string, len(Fig5Classes))
	for i, rc := range Fig5Classes {
		out[i] = rc.Name
	}
	return out
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
