package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// Workload sizing. Rates are fixed here, not derived from the machine, so
// every run of a workload offers the same traffic for a given seed.
const (
	echoBodyBytes = 64
	echoPool      = 64

	// apps-open: the interactive mean inter-arrival (25 ms) is well above
	// the 5 ms quantum, so its tail measures preemption beside cifar10 more
	// than a backlog on the client's connection. Three in four interactive
	// requests are gps-ekf, so the median sits inside one mode of the
	// two-app mix instead of between them. cifar10 keeps the worker busy
	// about a sixth of the time.
	interactiveRPS = 40
	ekfShare       = 0.75
	batchRPS       = 3
	ekfPool        = 16
	ocrPool        = 16
	cifarPool      = 8
	ocrNoisePixels = 12

	chainFrame = 8
	chainPool  = 64

	fleetCycle       = 20000 // Zipf draws per connection, cycled
	fleetZipfS       = 1.3
	fleetCacheBudget = 16 << 20
	fleetProbePool   = 2000
)

// workload is one benchmark traffic mix and the runtime it is served by.
type workload struct {
	name string
	cfg  core.Config
	// register compiles and registers the workload's modules and
	// pipelines; it is part of the timed set-up.
	register func(rt *core.Runtime) error
	// pool holds distinct inputs for the in-process probes and the gas
	// identity check.
	pool []*input
	// modIn holds single-module inputs: the pool itself, except for the
	// pipeline, whose stages get the chain's intermediate payloads.
	modIn []*input
	// plan builds one phase's seeded traffic.
	plan func(rng *rand.Rand, window time.Duration) *plan
	// composed selects the traced request path: a handler composing
	// core.run's public calls (echo, apps), or a span around the
	// runtime's own InvokeWithDeadline (pipelines, the tiered fleet).
	composed bool
	// sources are the WCC programs the compile and register probes time.
	sources []source
	// batchClass reports whether class 1 exists (apps-open cifar10).
	batchClass bool
	// fleet is the generated module set (fleet-zipf only).
	fleet []fleetModule
}

type source struct {
	name string
	src  string
	opts wcc.Options
}

var workloadNames = []string{"echo-closed", "apps-open", "imgchain-closed", "fleet-zipf"}

// baseConfig mirrors cmd/sledge's defaults with one worker: admission on
// with default limits, no tiering, an unbounded module cache.
func baseConfig() core.Config {
	return core.Config{
		Workers:   1,
		Quantum:   5 * time.Millisecond,
		KV:        abi.NewMapKV(),
		MaxConns:  1024,
		Admission: &admission.Config{},
	}
}

// newWorkload builds the named workload's inputs from seed; name is one of
// workloadNames.
func newWorkload(name string, seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "echo-closed":
		return echoWorkload(rng)
	case "apps-open":
		return appsWorkload(rng)
	case "imgchain-closed":
		return chainWorkload(rng)
	}
	return fleetWorkload(rng)
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// registerApps compiles built-in apps and registers them under tenants, as
// cmd/sledge -apps does.
func registerApps(names []string, tenant map[string]string) func(rt *core.Runtime) error {
	return func(rt *core.Runtime) error {
		for _, n := range names {
			app, _ := apps.Get(n)
			cm, err := app.Compile(rt.EngineConfig())
			if err != nil {
				return err
			}
			if _, err := rt.RegisterCompiled(n, cm, "main", tenant[n]); err != nil {
				return err
			}
		}
		return nil
	}
}

func appSources(names ...string) []source {
	var out []source
	for _, n := range names {
		app, _ := apps.Get(n)
		out = append(out, source{n, app.Source, wcc.Options{HeapBytes: app.HeapBytes, Data: app.Data}})
	}
	return out
}

// closedPlan gives each of conns connections the whole pool, each in its
// own seeded order.
func closedPlan(pool []*input, conns int) func(*rand.Rand, time.Duration) *plan {
	return func(rng *rand.Rand, _ time.Duration) *plan {
		p := &plan{closed: true, conns: make([][]call, conns)}
		for g := range p.conns {
			for _, i := range rng.Perm(len(pool)) {
				p.conns[g] = append(p.conns[g], call{in: pool[i]})
			}
		}
		return p
	}
}

func echoWorkload(rng *rand.Rand) *workload {
	w := &workload{
		name:     "echo-closed",
		cfg:      baseConfig(),
		register: registerApps([]string{"echo"}, nil),
		composed: true,
		sources:  appSources("echo"),
	}
	for i := 0; i < echoPool; i++ {
		body := randBytes(rng, echoBodyBytes)
		w.pool = append(w.pool, newInput(0, "echo", body, body))
	}
	w.modIn = w.pool
	w.plan = closedPlan(w.pool, 2)
	return w
}

func appsWorkload(rng *rand.Rand) *workload {
	w := &workload{
		name: "apps-open",
		cfg:  baseConfig(),
		register: registerApps([]string{"gps-ekf", "gocr", "cifar10"},
			map[string]string{"gps-ekf": "interactive", "gocr": "interactive", "cifar10": "batch"}),
		composed:   true,
		batchClass: true,
		sources:    appSources("gps-ekf", "gocr", "cifar10"),
	}
	ekf, _ := apps.Get("gps-ekf")
	ocr, _ := apps.Get("gocr")
	cifar, _ := apps.Get("cifar10")
	var interactive, batch []*input
	for i := 0; i < ekfPool; i++ {
		// The request ends with the four f64 measurements z; perturb them.
		req := apps.EKFRequest()
		for j := 0; j < 4; j++ {
			off := len(req) - 32 + 8*j
			z := math.Float64frombits(binary.LittleEndian.Uint64(req[off:]))
			binary.LittleEndian.PutUint64(req[off:], math.Float64bits(z+rng.Float64()*0.2-0.1))
		}
		interactive = append(interactive, newInput(0, "gps-ekf", req, ekf.Native(req)))
	}
	for i := 0; i < ocrPool; i++ {
		req := apps.OCRRequest(40)
		for j := 0; j < ocrNoisePixels; j++ {
			req[8+rng.Intn(len(req)-8)] = byte(rng.Intn(256))
		}
		interactive = append(interactive, newInput(0, "gocr", req, ocr.Native(req)))
	}
	for i := 0; i < cifarPool; i++ {
		req := apps.CIFARRequest(rng.Intn(1 << 20))
		batch = append(batch, newInput(1, "cifar10", req, cifar.Native(req)))
	}
	w.pool = append(interactive, batch...)
	w.modIn = w.pool
	w.plan = func(rng *rand.Rand, window time.Duration) *plan {
		return &plan{conns: [][]call{
			poisson(rng, interactiveRPS, window, func() *input {
				if rng.Float64() < ekfShare {
					return interactive[rng.Intn(ekfPool)]
				}
				return interactive[ekfPool+rng.Intn(ocrPool)]
			}),
			poisson(rng, batchRPS, window, func() *input { return batch[rng.Intn(len(batch))] }),
		}}
	}
	return w
}

func chainWorkload(rng *rand.Rand) *workload {
	w := &workload{
		name: "imgchain-closed",
		cfg:  baseConfig(),
		register: func(rt *core.Runtime) error {
			if err := registerApps(apps.ChainStages, nil)(rt); err != nil {
				return err
			}
			_, err := rt.RegisterPipeline("imgchain", apps.ChainStages...)
			return err
		},
		sources: appSources(apps.ChainStages...),
	}
	for i := 0; i < chainPool; i++ {
		req := apps.ChainRequest(chainFrame, chainFrame)
		rng.Read(req[8:])
		w.pool = append(w.pool, newInput(0, core.PipelinePrefix+"imgchain", req, apps.ChainNative(req)))
		for _, stage := range apps.ChainStages {
			app, _ := apps.Get(stage)
			out := app.Native(req)
			w.modIn = append(w.modIn, newInput(0, stage, req, out))
			req = out
		}
	}
	// One connection: with two, a chain ran alone (~65 µs) or overlapped
	// with the other connection's (~135 µs) on the single worker, the
	// median fell between the two modes, and it moved 0.21 of itself
	// between runs.
	w.plan = closedPlan(w.pool, 1)
	return w
}

func fleetWorkload(rng *rand.Rand) *workload {
	cfg := baseConfig()
	cfg.Tiering = &core.TieringConfig{Mode: core.TierAdaptive}
	cfg.CacheBudgetBytes = fleetCacheBudget
	w := &workload{
		name:  "fleet-zipf",
		cfg:   cfg,
		fleet: genFleet(rng, fleetSize),
	}
	opts := wcc.Options{HeapBytes: fleetHeap}
	w.register = func(rt *core.Runtime) error {
		for i := range w.fleet {
			if _, err := rt.RegisterWCC(w.fleet[i].name, w.fleet[i].source, opts); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < len(w.fleet); i += len(w.fleet) / 50 {
		w.sources = append(w.sources, source{w.fleet[i].name, w.fleet[i].source, opts})
	}
	draw := w.fleetDraw(rng)
	for i := 0; i < fleetProbePool; i++ {
		w.pool = append(w.pool, draw())
	}
	w.modIn = w.pool
	w.plan = func(rng *rand.Rand, _ time.Duration) *plan {
		draw := w.fleetDraw(rng)
		p := &plan{closed: true, conns: make([][]call, 2)}
		for g := range p.conns {
			for i := 0; i < fleetCycle; i++ {
				p.conns[g] = append(p.conns[g], call{in: draw()})
			}
		}
		return p
	}
	return w
}

// fleetDraw returns a generator of Zipf-distributed fleet requests with
// seeded bodies; rank k maps to module k.
func (w *workload) fleetDraw(rng *rand.Rand) func() *input {
	zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(len(w.fleet)-1))
	return func() *input {
		m := &w.fleet[zipf.Uint64()]
		body := randBytes(rng, fleetMinBody+rng.Intn(fleetMaxBody-fleetMinBody+1))
		return newInput(0, m.name, body, m.mirror(body))
	}
}
