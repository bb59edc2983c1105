package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/core"
	"sledge/internal/stats"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// The adaptive-tiering benchmark has two halves:
//
//  1. Registration storm — register thousands of modules (the paper's
//     multi-tenant edge fleet coming up after a deploy or node restart) and
//     compare the static full-tier pipeline against the tier ladder's cheap
//     rung. This is the cold-register cliff adaptive tiering exists to
//     remove.
//  2. Zipf time-to-peak — drive a Zipf-distributed closed loop over a fleet
//     of compute-bound modules and watch throughput converge as the
//     promotion controller recompiles the hot set in the background. The
//     steady-state ratio against the static-full baseline is the acceptance
//     number: adaptive must reach >= 95% of static-full.
//
// `make bench-tierup` regenerates BENCH_tierup.json from this file.

// tierupStormApps is the registration-storm corpus: the paper's real-world
// functions, compiled to wasm once and then registered round-robin so the
// storm decodes/validates/compiles realistic module bodies, not toys.
var tierupStormApps = []string{"gps-ekf", "gocr", "resize", "lpd"}

// tierupComputeSrc is the Zipf workload: a table-fill plus data-dependent
// scan, so memory accesses (where the full rung's lowering and analysis
// pay) dominate the service time, with a response byte derived from the
// input so every reply proves which code produced it.
const tierupComputeSrc = `
static u8 tbl[4096];
static u8 buf[8];
export i32 main() {
	sys_read(buf, 8);
	i32 seed = buf[0] + 1;
	for (i32 i = 0; i < 4096; i = i + 1) {
		tbl[i] = seed + i * 7;
	}
	i32 s = 0;
	for (i32 r = 0; r < 2; r = r + 1) {
		for (i32 i = 0; i < 4096; i = i + 1) {
			s = s + tbl[(i + s) & 4095];
		}
	}
	buf[0] = s;
	sys_write(buf, 1);
	return 0;
}
`

type tierupStormEntry struct {
	Mode        string `json:"mode"`
	Modules     int    `json:"modules"`
	TotalNS     int64  `json:"total_ns"`
	PerModuleNS int64  `json:"per_module_ns"`
	// P50NS/P90NS are per-registration latency percentiles. The median is
	// the acceptance statistic: at fleet scale the mean absorbs collector
	// assist bursts whose size tracks the retained-module heap, a cost
	// every rung pays alike, while the median isolates the registration
	// path the tiers actually differ on.
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	VsFull float64 `json:"speedup_vs_full_p50"`
}

type tierupStormSection struct {
	Modules            int                `json:"modules"`
	Corpus             []string           `json:"corpus"`
	Modes              []tierupStormEntry `json:"modes"`
	SpeedupCheapVsFull float64            `json:"speedup_cheap_vs_full"`
}

type tierupZipfEntry struct {
	Mode         string    `json:"mode"`
	Requests     int       `json:"requests"`
	SteadyRPS    float64   `json:"steady_rps"`
	TimeToPeakMS int64     `json:"time_to_peak_ms"` // -1: never reached 95% of static-full steady
	Promotions   uint64    `json:"promotions"`
	WindowRPS    []float64 `json:"window_rps"`
}

type tierupZipfSection struct {
	Modules                   int               `json:"modules"`
	DurationMS                int64             `json:"duration_ms"`
	WindowMS                  int64             `json:"window_ms"`
	Workers                   int               `json:"workers"`
	ZipfS                     float64           `json:"zipf_s"`
	Modes                     []tierupZipfEntry `json:"modes"`
	SteadyRatioAdaptiveVsFull float64           `json:"steady_ratio_adaptive_vs_full"`
}

// tierupSnapshot is the machine-readable BENCH_tierup.json payload.
type tierupSnapshot struct {
	snapHeader
	Storm tierupStormSection `json:"registration_storm"`
	Zipf  tierupZipfSection  `json:"zipf_time_to_peak"`
}

// tierupStormModes pairs each storm mode with its runtime tiering config.
// Thresholds are effectively infinite and the scan interval long so the
// promotion controller stays quiet: the storm isolates registration cost.
func tierupStormModes() []struct {
	Name string
	Cfg  core.TieringConfig
} {
	quiet := core.TieringConfig{
		Mode:           core.TierAdaptive,
		HotInvocations: 1 << 60,
		HotGas:         1 << 62,
		Interval:       time.Minute,
	}
	return []struct {
		Name string
		Cfg  core.TieringConfig
	}{
		{"static-full", core.TieringConfig{Mode: core.TierStatic}},
		{"adaptive-cheap", quiet},
	}
}

// RunTierup measures adaptive tiering: the registration storm on both rungs
// of the tier ladder and the Zipf closed loop's convergence to static-full
// throughput. With SnapshotPath set it writes BENCH_tierup.json.
func RunTierup(o Options) ([]*Table, error) {
	var snap tierupSnapshot
	return runTierup(o, &snap)
}

func runTierup(o Options, snap *tierupSnapshot) ([]*Table, error) {
	stormN := 10000
	zipfModules := 48
	zipfDuration := 3 * time.Second
	zipfWindow := 100 * time.Millisecond
	if o.Quick {
		stormN = 400
		zipfModules = 8
		zipfDuration = 500 * time.Millisecond
		zipfWindow = 50 * time.Millisecond
	}
	workers := min(o.workers(), 8)

	snap.Description = "Adaptive tiering: cheap-rung registration storm vs the static full pipeline, and Zipf closed-loop throughput convergence as the promotion controller recompiles the hot set in the background. make bench-tierup"
	snap.Acceptance = "registration storm: cheap-rung p50 strictly faster than static-full and within 1.5x of the stack-form cheap rung it replaced (37 us p50 on a 2-vCPU box; compare medians of alternating runs on one box); zipf: adaptive steady-state throughput >= 95% of static-full"

	stormTbl, err := runTierupStorm(o, stormN, &snap.Storm)
	if err != nil {
		return nil, err
	}
	zipfTbl, err := runTierupZipfSweep(o, zipfModules, workers, zipfDuration, zipfWindow, &snap.Zipf)
	if err != nil {
		return nil, err
	}

	if err := o.writeSnapshot("tierup", snap); err != nil {
		return nil, err
	}
	return []*Table{stormTbl, zipfTbl}, nil
}

// runTierupStorm registers stormN modules (round-robin over the compiled
// app corpus) into a fresh runtime per mode and times the registration
// loop. A warmup round per mode plus an explicit GC between modes keeps the
// collector's pacing from crediting one mode with another's debt.
func runTierupStorm(o Options, stormN int, out *tierupStormSection) (*Table, error) {
	type appBin struct {
		name  string
		bin   []byte
		req   []byte
		want  []byte
		heavy bool
	}
	corpus := make([]appBin, 0, len(tierupStormApps))
	for _, name := range tierupStormApps {
		app, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("tierup: unknown app %s", name)
		}
		res, err := wcc.Compile(app.Source, wcc.Options{HeapBytes: app.HeapBytes, Data: app.Data})
		if err != nil {
			return nil, fmt.Errorf("tierup: compile %s: %w", name, err)
		}
		req := app.GenRequest()
		corpus = append(corpus, appBin{name: name, bin: res.Binary, req: req, want: app.Native(req)})
	}
	out.Modules = stormN
	out.Corpus = append(out.Corpus, tierupStormApps...)

	runStorm := func(cfg core.TieringConfig, n int, lat []time.Duration) (time.Duration, error) {
		rt := core.New(core.Config{Workers: 2, Tiering: &cfg})
		defer rt.Close()
		start := time.Now()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("m%06d", i)
			t0 := time.Now()
			if _, err := rt.RegisterWasm(name, corpus[i%len(corpus)].bin, "main"); err != nil {
				return 0, fmt.Errorf("tierup storm: register %s: %w", name, err)
			}
			if lat != nil {
				lat[i] = time.Since(t0)
			}
		}
		elapsed := time.Since(start)
		if lat != nil {
			// One request through each distinct app: whatever rung served
			// the storm must produce the native answer.
			for i, ab := range corpus {
				got, err := rt.Invoke(fmt.Sprintf("m%06d", i), ab.req)
				if err != nil {
					return 0, fmt.Errorf("tierup storm: invoke %s: %w", ab.name, err)
				}
				if !bytes.Equal(got, ab.want) {
					return 0, fmt.Errorf("tierup storm: %s response != native", ab.name)
				}
			}
		}
		return elapsed, nil
	}

	tbl := &Table{
		ID:      "tierup-storm",
		Title:   fmt.Sprintf("Registration storm: %d modules (corpus %v)", stormN, tierupStormApps),
		Headers: []string{"mode", "total", "mean", "p50", "p90", "vs static-full (p50)"},
		Notes: []string{
			"static-full compiles analysis+regalloc at registration (the pre-tiering behaviour);",
			"adaptive-cheap compiles the register form with static analysis off;",
			"the p50 is the acceptance statistic: the mean absorbs GC assist bursts sized by the retained fleet, which every rung pays alike",
		},
	}
	var fullP50 int64
	lat := make([]time.Duration, stormN)
	for _, mode := range tierupStormModes() {
		// Warmup: touch the same code paths at a tenth of the size, then
		// collect, so measured runs start from comparable heaps.
		if _, err := runStorm(mode.Cfg, stormN/10+1, nil); err != nil {
			return nil, err
		}
		runtime.GC()
		elapsed, err := runStorm(mode.Cfg, stormN, lat)
		if err != nil {
			return nil, err
		}
		sum := stats.Summarize(lat)
		entry := tierupStormEntry{
			Mode:        mode.Name,
			Modules:     stormN,
			TotalNS:     elapsed.Nanoseconds(),
			PerModuleNS: elapsed.Nanoseconds() / int64(stormN),
			P50NS:       sum.P50.Nanoseconds(),
			P90NS:       sum.P90.Nanoseconds(),
		}
		if mode.Name == "static-full" {
			fullP50 = entry.P50NS
		}
		if fullP50 > 0 && entry.P50NS > 0 {
			entry.VsFull = float64(fullP50) / float64(entry.P50NS)
		}
		if mode.Name == "adaptive-cheap" {
			out.SpeedupCheapVsFull = entry.VsFull
		}
		out.Modes = append(out.Modes, entry)
		tbl.Rows = append(tbl.Rows, []string{
			entry.Mode, time.Duration(entry.TotalNS).String(),
			time.Duration(entry.PerModuleNS).String(),
			time.Duration(entry.P50NS).String(),
			time.Duration(entry.P90NS).String(),
			fmt.Sprintf("%.2fx", entry.VsFull),
		})
		o.logf("tierup storm: %s %v total, mean %v, p50 %v", mode.Name, elapsed,
			time.Duration(entry.PerModuleNS), time.Duration(entry.P50NS))
	}
	return tbl, nil
}

// runTierupZipfSweep drives the Zipf closed loop under three
// configurations: the static-full baseline, the never-promote ablation, and
// adaptive tiering starting from the cheap rung (the controller must
// recompile the hot set before throughput can approach the baseline).
func runTierupZipfSweep(o Options, modules, workers int, duration, window time.Duration, out *tierupZipfSection) (*Table, error) {
	res, err := wcc.Compile(tierupComputeSrc, wcc.Options{})
	if err != nil {
		return nil, fmt.Errorf("tierup zipf: compile workload: %w", err)
	}
	bin := res.Binary

	const zipfS = 1.3
	out.Modules = modules
	out.DurationMS = duration.Milliseconds()
	out.WindowMS = window.Milliseconds()
	out.Workers = workers
	out.ZipfS = zipfS

	adaptive := core.TieringConfig{
		Mode:           core.TierAdaptive,
		HotInvocations: 8,
		HotGas:         1 << 20,
		Interval:       5 * time.Millisecond,
		MaxConcurrent:  4,
	}
	modes := []struct {
		Name string
		Cfg  core.TieringConfig
	}{
		{"static-full", core.TieringConfig{Mode: core.TierStatic}},
		{"cheap-only", core.TieringConfig{Mode: core.TierCheapOnly}},
		{"adaptive", adaptive},
	}

	tbl := &Table{
		ID:    "tierup-zipf",
		Title: fmt.Sprintf("Zipf(s=%.1f) closed loop: %d modules, %d workers, %v", zipfS, modules, workers, duration),
		Headers: []string{"mode", "requests", "steady req/s", "vs static-full",
			"time to 95% of full", "promotions"},
		Notes: []string{
			"steady req/s is the mean over the run's last third;",
			"adaptive starts every module on the cheap rung and recompiles the Zipf-hot set in the background",
		},
	}
	for _, mode := range modes {
		entry, err := runTierupZipfMode(mode.Cfg, bin, modules, workers, duration, window, zipfS)
		if err != nil {
			return nil, fmt.Errorf("tierup zipf %s: %w", mode.Name, err)
		}
		entry.Mode = mode.Name
		out.Modes = append(out.Modes, entry)
		o.logf("tierup zipf: %s steady=%.0f req/s promotions=%d", mode.Name, entry.SteadyRPS, entry.Promotions)
	}
	// Time-to-peak and the acceptance ratio are computed against the
	// static-full baseline after every mode has run, so mode ordering does
	// not bias them.
	var fullSteady float64
	for _, e := range out.Modes {
		if e.Mode == "static-full" {
			fullSteady = e.SteadyRPS
		}
	}
	for i := range out.Modes {
		e := &out.Modes[i]
		for wi, rps := range e.WindowRPS {
			if fullSteady > 0 && rps >= 0.95*fullSteady {
				e.TimeToPeakMS = int64(wi+1) * window.Milliseconds()
				break
			}
		}
		if e.Mode == "adaptive" && fullSteady > 0 {
			out.SteadyRatioAdaptiveVsFull = e.SteadyRPS / fullSteady
		}
		ratio := "-"
		if fullSteady > 0 {
			ratio = fmt.Sprintf("%.2f", e.SteadyRPS/fullSteady)
		}
		peak := "never"
		if e.TimeToPeakMS >= 0 {
			peak = fmt.Sprintf("%dms", e.TimeToPeakMS)
		}
		tbl.Rows = append(tbl.Rows, []string{
			e.Mode, fmt.Sprint(e.Requests),
			fmt.Sprintf("%.0f", e.SteadyRPS), ratio, peak,
			fmt.Sprint(e.Promotions),
		})
	}
	return tbl, nil
}

// runTierupZipfMode runs one configuration of the Zipf closed loop. Every
// response is checked against the module's warmup response, so a promotion
// that changed observable behaviour fails the benchmark, not just a test.
func runTierupZipfMode(cfg core.TieringConfig, bin []byte, modules, workers int,
	duration, window time.Duration, zipfS float64) (tierupZipfEntry, error) {
	entry := tierupZipfEntry{TimeToPeakMS: -1}
	rt := core.New(core.Config{Workers: workers, Tiering: &cfg})
	defer rt.Close()

	names := make([]string, modules)
	payloads := make([][]byte, modules)
	want := make([][]byte, modules)
	for i := range names {
		names[i] = fmt.Sprintf("z%03d", i)
		if _, err := rt.RegisterWasm(names[i], bin, "main"); err != nil {
			return entry, err
		}
		payloads[i] = []byte{byte(i), byte(i >> 8), 0, 0, 0, 0, 0, 0}
		got, err := rt.Invoke(names[i], payloads[i])
		if err != nil {
			return entry, err
		}
		want[i] = append([]byte(nil), got...)
	}

	nWindows := int(duration / window)
	windows := make([]atomic.Int64, nWindows+1)
	var total atomic.Int64
	var firstErr atomic.Pointer[error]
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(modules-1))
			for time.Now().Before(deadline) {
				i := int(zipf.Uint64())
				got, err := rt.Invoke(names[i], payloads[i])
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("module %s: response diverged after tier swap", names[i])
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if wi := int(time.Since(start) / window); wi < len(windows) {
					windows[wi].Add(1)
				}
				total.Add(1)
			}
		}(int64(7919 * (w + 1)))
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return entry, *ep
	}

	entry.Requests = int(total.Load())
	entry.WindowRPS = make([]float64, nWindows)
	for i := 0; i < nWindows; i++ {
		entry.WindowRPS[i] = float64(windows[i].Load()) / window.Seconds()
	}
	steadyFrom := nWindows * 2 / 3
	var sum float64
	for _, rps := range entry.WindowRPS[steadyFrom:] {
		sum += rps
	}
	if n := nWindows - steadyFrom; n > 0 {
		entry.SteadyRPS = sum / float64(n)
	}
	if snap, ok := rt.TieringStats(); ok {
		entry.Promotions = snap.Promotions
	}
	return entry, nil
}
