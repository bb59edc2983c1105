package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sledge/internal/abi"
	"sledge/internal/core"
	"sledge/internal/engine"
	"sledge/internal/httpd"
	"sledge/internal/wcc"
)

// probeTime bounds each in-process probe loop.
const probeTime = time.Second

// engineKeys are the engine.*.<key> metric suffixes: one per app module,
// and "fleet" for the generated modules taken together.
var engineKeys = []string{"echo", "gps-ekf", "gocr", "cifar10", "resize", "rgb2gray", "lpd", "fleet"}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func (w *workload) engineKey(in *input) string {
	if w.fleet != nil {
		return "fleet"
	}
	return in.name
}

// runTraced is the -trace 1 run: an untraced phase exactly like -trace 0,
// a traced phase through the composed or spanned handler, then in-process
// probes of single layers. It reports every per-layer metric; a metric
// whose layer the workload does not exercise reads 0.
func runTraced(w *workload, seed int64, window time.Duration, st stampInfo, outDir string) (*result, error) {
	s, _, err := setUp(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// Each phase gets half the window, so a traced run costs about as
	// much time as an untraced one plus its probes.
	base, err := measure(s, w, seed, window/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w, s.rt)
	t, recs, c0, c1, util, err := tr.phase(seed, window/2)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, name := range perLayerNames() {
		m[name] = metric{0, perLayerUnit(name)}
	}
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnit(name)} }

	// Tracing overhead: the traced phase against the untraced one.
	e0, e1 := endToEnd(base), endToEnd(t)
	set("trace.overhead_goodput", share(e0["goodput_rps"].Value-e1["goodput_rps"].Value, e0["goodput_rps"].Value))
	set("trace.overhead_latency_p50", share(e1["latency_p50_us"].Value-e0["latency_p50_us"].Value, e0["latency_p50_us"].Value))
	set("trace.overhead_latency_p90", share(e1["latency_p90_us"].Value-e0["latency_p90_us"].Value, e0["latency_p90_us"].Value))
	set("driver.late_p99_us", us(base.late.q(0.99)))

	// Spans of the traced phase.
	set("httpd.outside_us", us(pct(outside(t, recs), 0.5)))
	set("sched.utilization", util)
	set("admission.shed_share", share(float64(c1.shed-c0.shed), float64(t.attempted)))
	set("core.promotions", float64(c1.promotions-c0.promotions))
	set("core.recompile_ms", float64(c1.recompile-c0.recompile)/1e6)
	set("core.cold_recompiles", float64(c1.coldRecomp-c0.coldRecomp))
	set("core.evictions", float64(c1.evictions-c0.evictions))
	set("core.cache_hit_share", 1-share(float64(c1.coldRecomp-c0.coldRecomp), float64(t.attempted)))
	for name, p1 := range c1.pipes {
		p0 := c0.pipes[name]
		inv := float64(p1.Invocations - p0.Invocations)
		fast := float64(p1.FastHandoffs - p0.FastHandoffs)
		set("pipeline.fast_handoff_share", share(fast, fast+float64(p1.BufferedHandoffs-p0.BufferedHandoffs)))
		set("pipeline.handoff_bytes_per_req", share(float64(p1.HandoffBytes-p0.HandoffBytes), inv))
	}
	composedRecs := recs
	if !w.composed {
		// The spanned handler cannot see inside the runtime; the sandbox
		// and scheduler spans come from composing the same calls in
		// process over the workload's single-module inputs.
		composedRecs, err = tr.composeProbe()
		if err != nil {
			return nil, err
		}
	}
	spanMetrics(composedRecs, set)

	// In-process probes of single layers.
	correct := t.wrong == 0 && base.wrong == 0
	if err := probeHTTPD(w, set); err != nil {
		return nil, err
	}
	if err := probeCore(w, s.rt, set); err != nil {
		return nil, err
	}
	if err := probeEngine(w, s.rt, set); err != nil {
		return nil, err
	}
	if err := probeCompile(w, s.rt, set); err != nil {
		return nil, err
	}
	mismatch, err := checkGas(w, tr)
	if err != nil {
		return nil, err
	}
	if mismatch != "" {
		fmt.Println("# gas identity FAILED:", mismatch)
		correct = false
	}

	fmt.Println("# untraced phase")
	report(w, base, e0)
	fmt.Println("# traced phase")
	report(w, t, e1)
	spanTable(composedRecs)
	for _, k := range sortedKeys(m) {
		fmt.Printf("# %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	path, err := writeTrace(outDir, st, recs, t)
	if err != nil {
		return nil, err
	}
	fmt.Println("# spans written to", path)
	return &result{
		Correct:   correct,
		Attempted: base.attempted + t.attempted,
		Failed:    base.failed() + t.failed(),
		Metrics:   m,
	}, nil
}

// perLayerNames lists every per-layer metric the traced run reports.
func perLayerNames() []string {
	names := []string{
		"httpd.null_rtt_us", "httpd.parse_ns", "httpd.outside_us",
		"admission.admit_ns", "admission.wait_p99_us", "admission.shed_share",
		"sched.submit_ns", "sched.queue_wait_p50_us", "sched.queue_wait_p99_us",
		"sched.run_p50_us", "sched.run_p99_us", "sched.notify_us",
		"sched.preemptions_per_req", "sched.utilization",
		"sandbox.new_ns", "sandbox.release_ns", "sandbox.cold_new_p99_us",
		"engine.compile_ms", "engine.compile_cheap_ms",
		"core.invoke_p50_us", "core.invoke_p99_us", "core.allocs_per_invoke", "core.register_ms",
		"core.promotions", "core.recompile_ms", "core.cache_hit_share", "core.cold_recompiles", "core.evictions",
		"pipeline.overhead_us", "pipeline.fast_handoff_share", "pipeline.handoff_bytes_per_req",
		"driver.late_p99_us",
		"trace.overhead_goodput", "trace.overhead_latency_p50", "trace.overhead_latency_p90",
	}
	for _, k := range engineKeys {
		names = append(names, "engine.ns_per_gas."+k, "engine.gas_per_req."+k)
	}
	return names
}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_share"), strings.HasPrefix(name, "trace.overhead"), name == "sched.utilization":
		return "share"
	case strings.HasPrefix(name, "engine.ns_per_gas"):
		return "ns/gas"
	case strings.HasPrefix(name, "engine.gas_per_req"):
		return "gas"
	case name == "pipeline.handoff_bytes_per_req":
		return "B"
	}
	return "count"
}

// clientRTT is the client's latency for the request with the given id,
// or 0 when the request failed or carried no id.
func clientRTT(t *tally, id int64) int64 {
	n := int64(len(t.rtt))
	if id < 0 || n == 0 {
		return 0
	}
	conn := t.rtt[id%n]
	if k := id / n; k < int64(len(conn)) && conn[k] > 0 {
		return conn[k]
	}
	return 0
}

// outside joins the client's latency to each traced request's core span:
// client latency minus the time spent inside the runtime's calls.
func outside(t *tally, recs []record) []int64 {
	var d []int64
	for i := range recs {
		r := &recs[i]
		if rtt := clientRTT(t, r.id); rtt > 0 {
			d = append(d, rtt-(r.t[sCore1]-r.t[sCore0]))
		}
	}
	return d
}

// spanMetrics derives the admission, scheduler and sandbox metrics from
// composed-path records.
func spanMetrics(recs []record, set func(string, float64)) {
	var admit, wait, newNS, coldNew, release, submit, queue, run, notify []int64
	var preempt float64
	for i := range recs {
		r := &recs[i]
		if !r.composed || r.t[sCore1] == 0 {
			continue
		}
		admit = append(admit, (r.t[sAdmit]-r.t[sCore0])+(r.t[sCore1]-r.t[sRelease]))
		if r.queued {
			wait = append(wait, r.t[sAdmit]-r.t[sCore0])
		}
		if r.cold {
			coldNew = append(coldNew, r.t[sNew]-r.t[sAdmit])
		} else {
			newNS = append(newNS, r.t[sNew]-r.t[sAdmit])
		}
		release = append(release, r.t[sRelease]-r.t[sOutput])
		submit = append(submit, r.t[sSubmit]-r.t[sNew])
		queue = append(queue, max(0, r.t[sFirstRun]-r.t[sSubmit]))
		run = append(run, r.t[sDoneAt]-r.t[sFirstRun])
		notify = append(notify, r.t[sWoke]-r.t[sDoneAt])
		preempt += float64(r.preempt)
	}
	set("admission.admit_ns", float64(pct(admit, 0.5)))
	set("admission.wait_p99_us", us(pct(wait, 0.99)))
	set("sandbox.new_ns", float64(pct(newNS, 0.5)))
	set("sandbox.cold_new_p99_us", us(pct(coldNew, 0.99)))
	set("sandbox.release_ns", float64(pct(release, 0.5)))
	set("sched.submit_ns", float64(pct(submit, 0.5)))
	set("sched.queue_wait_p50_us", us(pct(queue, 0.5)))
	set("sched.queue_wait_p99_us", us(pct(queue, 0.99)))
	set("sched.run_p50_us", us(pct(run, 0.5)))
	set("sched.run_p99_us", us(pct(run, 0.99)))
	set("sched.notify_us", us(pct(notify, 0.5)))
	set("sched.preemptions_per_req", share(preempt, float64(len(run))))
}

// composeProbe runs the composed request path in process over the
// workload's single-module inputs for probeTime. Cold fleet modules are
// revived through the runtime first, outside the timed calls.
func (tr *tracer) composeProbe() ([]record, error) {
	end := time.Now().Add(probeTime)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		for _, in := range tr.w.modIn {
			var r record
			out, err := tr.composeRevived(in, &r)
			if err != nil {
				return nil, fmt.Errorf("composed %s: %w", in.name, err)
			}
			if !bytes.Equal(out, in.want) {
				return nil, fmt.Errorf("composed %s: wrong reply", in.name)
			}
			tr.add(&r)
		}
	}
	return tr.take(), nil
}

// composeRevived composes one request, first invoking the module through
// the runtime when the bounded cache has dropped its compiled body.
func (tr *tracer) composeRevived(in *input, r *record) ([]byte, error) {
	for try := 0; ; try++ {
		if _, err := compiled(tr.rt, in); err != nil {
			return nil, err
		}
		out, err := tr.compose(in.name, in.body, r)
		if !errors.Is(err, errEvicted) || try == 2 {
			return out, err
		}
	}
}

// probeHTTPD measures the listener layer alone: a null httpd.Server that
// echoes bodies (also the lean client's calibration) and ReadRequest on
// the workload's canned request bytes.
func probeHTTPD(w *workload, set func(string, float64)) error {
	srv := &httpd.Server{Handler: func(r *httpd.Request) httpd.Response {
		return httpd.Response{Status: 200, Body: r.Body}
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	p := &plan{closed: true, conns: [][]call{nil}}
	for _, in := range w.pool {
		p.conns[0] = append(p.conns[0], call{in: &input{name: in.name, head: in.head, body: in.body, want: in.body}})
	}
	t := drive(ln.Addr().String(), p, probeTime, false)
	srv.Close()
	ln.Close()
	<-served
	if t.failed() > 0 {
		return fmt.Errorf("null server: %d of %d failed: %v", t.failed(), t.attempted, t.firstErr)
	}
	set("httpd.null_rtt_us", us(t.lat[0].q(0.5)))

	var canned []byte
	sample := w.pool[:min(len(w.pool), 64)]
	for _, in := range sample {
		canned = append(canned, in.head...)
		canned = append(canned, "\r\n"...)
		canned = append(canned, in.body...)
	}
	per := len(sample)
	var batches []float64
	end := time.Now().Add(probeTime / 2)
	for len(batches) < 5 || time.Now().Before(end) {
		br := bufio.NewReader(bytes.NewReader(canned))
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if _, err := httpd.ReadRequest(br); err != nil {
				return fmt.Errorf("parse canned request: %w", err)
			}
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	set("httpd.parse_ns", medianF(batches))
	return nil
}

// probeCore times the runtime's in-process invoke, its allocations, and
// for pipelines the chain against its stages invoked one by one.
func probeCore(w *workload, rt *core.Runtime, set func(string, float64)) error {
	loop := func(ins []*input) ([]int64, error) {
		var lat []int64
		end := time.Now().Add(probeTime)
		for i := 0; i < len(ins) || time.Now().Before(end); i++ {
			in := ins[i%len(ins)]
			t0 := time.Now()
			out, err := rt.InvokeWithDeadline(in.name, in.body, 0)
			lat = append(lat, time.Since(t0).Nanoseconds())
			if err != nil {
				return nil, fmt.Errorf("invoke %s: %w", in.name, err)
			}
			if !bytes.Equal(out, in.want) {
				return nil, fmt.Errorf("invoke %s: wrong reply", in.name)
			}
		}
		return lat, nil
	}
	lat, err := loop(w.pool)
	if err != nil {
		return err
	}
	set("core.invoke_p50_us", us(pct(lat, 0.5)))
	set("core.invoke_p99_us", us(pct(lat, 0.99)))

	n := min(len(lat), 2000)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		in := w.pool[i%len(w.pool)]
		if _, err := rt.InvokeWithDeadline(in.name, in.body, 0); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	set("core.allocs_per_invoke", float64(ms1.Mallocs-ms0.Mallocs)/float64(n))

	if strings.HasPrefix(w.pool[0].name, core.PipelinePrefix) {
		stages := map[string][]*input{}
		var order []string
		for _, in := range w.modIn {
			if stages[in.name] == nil {
				order = append(order, in.name)
			}
			stages[in.name] = append(stages[in.name], in)
		}
		var sum int64
		for _, name := range order {
			sl, err := loop(stages[name])
			if err != nil {
				return err
			}
			sum += pct(sl, 0.5)
		}
		set("pipeline.overhead_us", us(pct(lat, 0.5)-sum))
	}
	return nil
}

// invokeIsolated runs one request on a pooled instance outside the
// scheduler and returns its time, gas and reply.
func invokeIsolated(cm *engine.CompiledModule, body []byte) (time.Duration, uint64, []byte, error) {
	inst := cm.Acquire()
	defer cm.Release(inst)
	ctx := abi.NewContext(body)
	inst.HostData = ctx
	t0 := time.Now()
	_, err := inst.Invoke("main")
	d := time.Since(t0)
	if err != nil {
		return 0, 0, nil, err
	}
	out, err := ctx.ResolveOutput(inst)
	return d, inst.Gas, append([]byte(nil), out...), err
}

// probeEngine times isolated Instance.Invoke per engine key: ns per gas
// over repeated passes, and the exact mean gas of one pass.
func probeEngine(w *workload, rt *core.Runtime, set func(string, float64)) error {
	byKey := map[string][]*input{}
	for _, in := range w.modIn {
		byKey[w.engineKey(in)] = append(byKey[w.engineKey(in)], in)
	}
	for key, ins := range byKey {
		var ns, gas, passGas float64
		end := time.Now().Add(probeTime / 2)
		for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
			for _, in := range ins {
				cm, err := compiled(rt, in)
				if err != nil {
					return err
				}
				d, g, out, err := invokeIsolated(cm, in.body)
				if err != nil {
					return fmt.Errorf("engine %s: %w", in.name, err)
				}
				if !bytes.Equal(out, in.want) {
					return fmt.Errorf("engine %s: wrong reply", in.name)
				}
				ns += float64(d.Nanoseconds())
				gas += float64(g)
				if pass == 0 {
					passGas += float64(g)
				}
			}
		}
		set("engine.ns_per_gas."+key, share(ns, gas))
		set("engine.gas_per_req."+key, passGas/float64(len(ins)))
	}
	return nil
}

// compiled returns the input's installed compiled module, reviving a cold
// fleet module through the runtime.
func compiled(rt *core.Runtime, in *input) (*engine.CompiledModule, error) {
	m, ok := rt.Lookup(in.name)
	if !ok {
		return nil, fmt.Errorf("no module %s", in.name)
	}
	for try := 0; try < 3; try++ {
		if cm := m.Compiled(); cm != nil {
			return cm, nil
		}
		if _, err := rt.InvokeWithDeadline(in.name, in.body, 0); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%s: evicted again on every revive", in.name)
}

// probeCompile times engine.CompileBinary at the full and the cheap rung,
// and Runtime.RegisterWCC into a scratch runtime, per workload module.
func probeCompile(w *workload, rt *core.Runtime, set func(string, float64)) error {
	full := rt.EngineConfig()
	cheap := engine.NewLadder(full, false).Cheap
	host := abi.WASIRegistry()
	scratch := core.New(w.cfg)
	defer scratch.Close()
	var fullMS, cheapMS, regMS []float64
	for _, src := range w.sources {
		res, err := wcc.Compile(src.src, src.opts)
		if err != nil {
			return fmt.Errorf("wcc %s: %w", src.name, err)
		}
		for _, c := range []struct {
			cfg engine.Config
			out *[]float64
		}{{full, &fullMS}, {cheap, &cheapMS}} {
			var reps []float64
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				if _, err := engine.CompileBinary(res.Binary, host, c.cfg); err != nil {
					return fmt.Errorf("compile %s: %w", src.name, err)
				}
				reps = append(reps, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			*c.out = append(*c.out, medianF(reps))
		}
		t0 := time.Now()
		if _, err := scratch.RegisterWCC(src.name, src.src, src.opts); err != nil {
			return fmt.Errorf("register %s: %w", src.name, err)
		}
		regMS = append(regMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	set("engine.compile_ms", mean(fullMS))
	set("engine.compile_cheap_ms", mean(cheapMS))
	set("core.register_ms", mean(regMS))
	return nil
}

// checkGas asserts that each single-module input costs the same gas on the
// runtime's own path (core.run, read from the module's gas counter), on
// the composed traced path, and isolated on the engine; for the pipeline,
// that the chain's gas counter equals the sum of its stages.
func checkGas(w *workload, tr *tracer) (string, error) {
	rt := tr.rt
	n := min(len(w.modIn), 256)
	for _, in := range w.modIn[:n] {
		m, ok := rt.Lookup(in.name)
		if !ok {
			return "", fmt.Errorf("no module %s", in.name)
		}
		g0 := m.Stats().Gas
		if _, err := rt.InvokeWithDeadline(in.name, in.body, 0); err != nil {
			return "", err
		}
		coreGas := m.Stats().Gas - g0
		var r record
		if _, err := tr.composeRevived(in, &r); err != nil {
			return "", err
		}
		cm, err := compiled(rt, in)
		if err != nil {
			return "", err
		}
		_, engineGas, _, err := invokeIsolated(cm, in.body)
		if err != nil {
			return "", err
		}
		if coreGas != r.gas || coreGas != engineGas {
			return fmt.Sprintf("%s: core %d, traced %d, engine %d", in.name, coreGas, r.gas, engineGas), nil
		}
	}
	tr.take()
	for _, name := range rt.Pipelines() {
		p, _ := rt.LookupPipeline(name)
		stages := len(p.StageNames())
		for i, in := range w.pool[:min(len(w.pool), 64)] {
			g0 := p.Stats().Gas
			if _, err := rt.InvokeWithDeadline(in.name, in.body, 0); err != nil {
				return "", err
			}
			var sum uint64
			for _, st := range w.modIn[i*stages : (i+1)*stages] {
				cm, err := compiled(rt, st)
				if err != nil {
					return "", err
				}
				_, g, _, err := invokeIsolated(cm, st.body)
				if err != nil {
					return "", err
				}
				sum += g
			}
			if got := p.Stats().Gas - g0; got != sum {
				return fmt.Sprintf("pipeline %s: chain %d, stages %d", name, got, sum), nil
			}
		}
	}
	return "", nil
}

// spanTable prints each composed span's p50 and p99 duration.
func spanTable(recs []record) {
	spans := map[string][]int64{}
	for i := range recs {
		for _, s := range spansOf(&recs[i]) {
			spans[s.Name] = append(spans[s.Name], s.End-s.Start)
		}
	}
	for _, name := range sortedKeys(spans) {
		fmt.Printf("# span %-20s p50 %10.2f us  p99 %10.2f us  n=%d\n", name,
			us(pct(spans[name], 0.5)), us(pct(spans[name], 0.99)), len(spans[name]))
	}
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spansOf expands one record's stamps into its span tree.
func spansOf(r *record) []span {
	t := &r.t
	end := t[sCore1]
	if end == 0 {
		return nil // a failed request; its stamps are incomplete
	}
	root := span{"httpd.handler", t[sHandler], end, ""}
	if !r.composed {
		name := "core.invoke"
		if strings.HasPrefix(r.mod, core.PipelinePrefix) {
			name = "pipeline.invoke"
		}
		return []span{root, {name, t[sCore0], end, root.Name}}
	}
	return []span{
		root,
		{"admission.admit", t[sCore0], t[sAdmit], root.Name},
		{"sandbox.new", t[sAdmit], t[sNew], root.Name},
		{"sched.submit", t[sNew], t[sSubmit], root.Name},
		{"sched.wait", t[sSubmit], t[sWoke], root.Name},
		{"sched.queue", t[sSubmit], max(t[sSubmit], t[sFirstRun]), "sched.wait"},
		{"sched.run", t[sFirstRun], t[sDoneAt], "sched.wait"},
		{"sched.notify", t[sDoneAt], t[sWoke], "sched.wait"},
		{"sandbox.output", t[sWoke], t[sOutput], root.Name},
		{"sandbox.release", t[sOutput], t[sRelease], root.Name},
		{"admission.done", t[sRelease], end, root.Name},
	}
}

// traceSample bounds how many requests' spans the trace file holds; they
// are spread evenly over the traced phase.
const traceSample = 4000

func writeTrace(dir string, st stampInfo, recs []record, t *tally) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", st.Workload, st.Seed))
	type request struct {
		ID     int64  `json:"id"`
		Module string `json:"module"`
		RTT    int64  `json:"client_rtt_ns,omitempty"`
		Spans  []span `json:"spans"`
	}
	var reqs []request
	for i := 0; i < len(recs); i += max(1, len(recs)/traceSample) {
		r := &recs[i]
		reqs = append(reqs, request{r.id, r.mod, clientRTT(t, r.id), spansOf(r)})
	}
	doc := struct {
		Stamp    stampInfo `json:"stamp"`
		Traced   int       `json:"requests_traced"`
		Requests []request `json:"requests"`
	}{st, len(recs), reqs}
	return path, os.WriteFile(path, []byte(mustJSON(doc)), 0o644)
}
