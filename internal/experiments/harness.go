// Package experiments contains one driver per table and figure in the
// paper's evaluation (§5), plus the ablations DESIGN.md calls out. Each
// driver runs the workloads through the real runtime(s) and renders a text
// table with the same rows/series the paper reports.
//
// Every driver honours Options.Quick, which shrinks problem sizes and
// iteration counts so the full suite can run in CI; the cmd/sledge-bench
// binary runs the full-size configuration.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"sledge/internal/core"
	"sledge/internal/stats"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/polybench"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks sizes/iterations for fast runs (tests).
	Quick bool
	// Workers overrides the Sledge worker count (default GOMAXPROCS).
	Workers int
	// KernelFilter restricts fig5/table1 and meter to the named PolyBench
	// kernels (empty = all 30).
	KernelFilter []string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// SnapshotPath, when set, makes experiments that support it write a
	// machine-readable JSON result there.
	SnapshotPath string
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// workers is the Sledge worker count: Options.Workers, else GOMAXPROCS.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// kernels returns the PolyBench kernels KernelFilter names, or all of
// them when it is empty.
func (o Options) kernels() []*polybench.Kernel {
	var out []*polybench.Kernel
	for i := range polybench.Kernels {
		if k := &polybench.Kernels[i]; len(o.KernelFilter) == 0 || slices.Contains(o.KernelFilter, k.Name) {
			out = append(out, k)
		}
	}
	return out
}

// size is k's problem size for the run mode.
func (o Options) size(k *polybench.Kernel) int {
	if o.Quick {
		return k.TestN
	}
	return k.DefaultN
}

// snapHeader is embedded first in every BENCH_*.json snapshot, so its
// fields flatten into the snapshot's top level. A number is comparable
// only with one taken on the same host and in the same mode, which is what
// the header records.
type snapHeader struct {
	Description string `json:"description"`
	Go          string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Quick       bool   `json:"quick"`
	Acceptance  string `json:"acceptance"`
}

func (h *snapHeader) header() *snapHeader { return h }

// writeSnapshot stamps snap's header with the toolchain, host and run mode
// and, when SnapshotPath is set, writes snap there as indented JSON.
func (o Options) writeSnapshot(id string, snap interface{ header() *snapHeader }) error {
	h := snap.header()
	h.Go = runtime.Version()
	h.GOMAXPROCS = runtime.GOMAXPROCS(0)
	h.NumCPU = runtime.NumCPU()
	h.Quick = o.Quick
	if o.SnapshotPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: snapshot: %w", id, err)
	}
	if err := os.WriteFile(o.SnapshotPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("%s: snapshot: %w", id, err)
	}
	o.logf("%s: wrote %s", id, o.SnapshotPath)
	return nil
}

// serveNode starts a runtime with cfg, registers each app under its name,
// and serves it on a loopback listener. It returns the runtime and its
// base URL; the caller closes the runtime. On error nothing is left
// running.
func serveNode(cfg core.Config, fns ...*apps.App) (*core.Runtime, string, error) {
	rt := core.New(cfg)
	for _, app := range fns {
		cm, err := app.Compile(rt.EngineConfig())
		if err == nil {
			_, err = rt.RegisterCompiled(app.Name, cm, "main", "")
		}
		if err != nil {
			rt.Close()
			return nil, "", fmt.Errorf("serve %s: %w", app.Name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, "", err
	}
	go rt.Serve(ln)
	return rt, "http://" + ln.Addr().String(), nil
}

// appsNamed resolves app names for serveNode.
func appsNamed(names ...string) ([]*apps.App, error) {
	out := make([]*apps.App, len(names))
	for i, name := range names {
		app, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown app %s", name)
		}
		out[i] = app
	}
	return out, nil
}

// interleavedMedians times every fn once per round, in order, and returns
// each fn's median over rounds. Interleaving spreads host drift (frequency
// changes, noisy neighbours) across all fns instead of landing it on
// whichever one happened to be running back to back through it. The first
// error stops timing.
func interleavedMedians(rounds int, fns ...func() error) ([]time.Duration, error) {
	times := make([][]time.Duration, len(fns))
	for r := 0; r < rounds; r++ {
		for i, fn := range fns {
			t0 := time.Now()
			if err := fn(); err != nil {
				return nil, err
			}
			times[i] = append(times[i], time.Since(t0))
		}
	}
	medians := make([]time.Duration, len(fns))
	for i, ts := range times {
		medians[i] = stats.Summarize(ts).P50
	}
	return medians, nil
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "fig5", "table2"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Registry maps experiment IDs to their drivers.
var Registry = map[string]func(Options) ([]*Table, error){
	"fig5":     func(o Options) ([]*Table, error) { return runFig5Table1(o) },
	"table1":   func(o Options) ([]*Table, error) { return runFig5Table1(o) },
	"fig6":     RunFig6,
	"fig7":     RunFig7,
	"fig8":     RunFig8,
	"table2":   RunTable2,
	"table3":   RunTable3,
	"memfoot":  RunMemFootprint,
	"cpubound": RunCPUBound,
	"overload": RunOverload,
	"cluster":  RunContinuum,
	"meter":    RunMeterAblation,
	"sched":    RunSchedBench,
	"tierup":   RunTierup,
	"warm":     RunWarm,
	"chain":    RunChain,
	"ablation": func(o Options) ([]*Table, error) {
		var out []*Table
		for _, fn := range []func(Options) ([]*Table, error){
			RunAblationQuantum, RunAblationDistribution, RunAblationBounds, RunAblationStartup, RunAblationWarm,
		} {
			ts, err := fn(o)
			if err != nil {
				return out, err
			}
			out = append(out, ts...)
		}
		return out, nil
	},
}

// IDs lists experiment IDs in paper order.
func IDs() []string {
	return []string{"fig5", "table1", "fig6", "fig7", "fig8", "table2", "table3", "memfoot", "cpubound", "overload", "cluster", "meter", "sched", "tierup", "warm", "chain", "ablation"}
}
