package main

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/httpd"
	"sledge/internal/sandbox"
	"sledge/internal/sched"
)

// The traced run times calls into each layer's public functions from this
// package; the program itself carries no instrumentation. For echo and apps
// the traced request path is an httpd.Server whose handler composes the
// calls core.run makes, against the runtime's own pool and compiled
// modules; the sandbox's own stamps split the submit→done interval. For the
// pipeline and the tiered fleet the handler spans the runtime's
// InvokeWithDeadline, and counter deltas describe what happened inside.

// Stamps of one traced request, in ns since the tracer's epoch.
const (
	sHandler  = iota // handler entered
	sCore0           // core span starts (before Admit / InvokeWithDeadline)
	sAdmit           // Admit returned
	sNew             // sandbox.New returned
	sSubmit          // Pool.Submit returned
	sFirstRun        // Sandbox.FirstRunAt
	sDoneAt          // Sandbox.DoneAt
	sWoke            // the waiter received Done()
	sOutput          // Output copied out
	sRelease         // Release returned
	sCore1           // core span ends (after Ticket.Done / InvokeWithDeadline)
	nStamps
)

// record is one traced request.
type record struct {
	id       int64
	mod      string
	t        [nStamps]int64
	composed bool
	queued   bool // found every admission slot held on entry
	cold     bool // sandbox.New found the module's instance pool empty
	preempt  uint64
	gas      uint64
}

// maxRecords bounds the records kept per phase; later requests are served
// untraced. It is far above the samples any percentile here needs.
const maxRecords = 1 << 18

// errEvicted reports a module whose compiled body the bounded cache dropped;
// only the runtime's own invoke path revives it.
var errEvicted = errors.New("compiled body evicted")

// requestTimeout mirrors core.Config's default request timeout.
const requestTimeout = 30 * time.Second

type tracer struct {
	w     *workload
	rt    *core.Runtime
	pool  *sched.Pool
	adm   *admission.Controller
	epoch time.Time

	maxInflight int
	held        atomic.Int64
	timers      sync.Pool

	mu   sync.Mutex
	recs []record
}

func newTracer(w *workload, rt *core.Runtime) *tracer {
	tr := &tracer{w: w, rt: rt, pool: rt.Pool(), epoch: time.Now()}
	// The composed path gets its own controller, configured the way
	// core.New fills in the runtime's.
	acfg := *w.cfg.Admission
	acfg.Workers = tr.pool.Workers()
	acfg.DefaultDeadline = requestTimeout
	acfg.Probe = tr.pool.Inflight
	acfg.QueueDepth = tr.pool.QueueDepth
	acfg.SeedEstimate = func(module string) time.Duration {
		if m, ok := rt.Lookup(module); ok {
			return m.Stats().MeanLatency
		}
		return 0
	}
	tr.maxInflight = 2 * acfg.Workers // admission.Config's MaxInflight default
	if acfg.MaxInflight > 0 {
		tr.maxInflight = acfg.MaxInflight
	}
	tr.adm = admission.New(acfg)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) add(r *record) {
	tr.mu.Lock()
	if len(tr.recs) < maxRecords {
		tr.recs = append(tr.recs, *r)
	}
	tr.mu.Unlock()
}

func (tr *tracer) take() []record {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := tr.recs
	tr.recs = nil
	return out
}

func requestID(req *httpd.Request) int64 {
	id, err := strconv.ParseInt(req.Header["x-id"], 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// errStatus maps an invoke error to its HTTP reply as core's handler does.
func errStatus(err error) httpd.Response {
	var rej *admission.Rejection
	switch {
	case errors.Is(err, core.ErrNoModule), errors.Is(err, core.ErrNoPipeline):
		return httpd.Response{Status: 404, Body: []byte(err.Error())}
	case errors.As(err, &rej):
		return httpd.Response{Status: rej.Status, RetryAfter: rej.RetryAfter, Body: []byte(rej.Reason)}
	}
	return httpd.Response{Status: 500, Body: []byte(err.Error())}
}

func (tr *tracer) invokeHandler(req *httpd.Request) httpd.Response {
	r := record{id: requestID(req)}
	r.t[sHandler] = tr.now()
	r.mod = strings.TrimPrefix(req.Path, "/")
	r.t[sCore0] = tr.now()
	out, err := tr.rt.InvokeWithDeadline(r.mod, req.Body, 0)
	r.t[sCore1] = tr.now()
	tr.add(&r)
	if err != nil {
		return errStatus(err)
	}
	return httpd.Response{Status: 200, Body: out}
}

func (tr *tracer) composedHandler(req *httpd.Request) httpd.Response {
	r := record{id: requestID(req)}
	r.t[sHandler] = tr.now()
	out, err := tr.compose(strings.TrimPrefix(req.Path, "/"), req.Body, &r)
	tr.add(&r)
	if err != nil {
		return errStatus(err)
	}
	return httpd.Response{Status: 200, Body: out}
}

// compose serves one request with the public calls core.run makes:
// Admit → sandbox.New → Pool.Submit → <-Done() → Output/Release →
// Ticket.Done, stamping r between them.
func (tr *tracer) compose(name string, body []byte, r *record) ([]byte, error) {
	r.mod, r.composed = name, true
	m, ok := tr.rt.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrNoModule, name)
	}
	cm := m.Compiled()
	if cm == nil {
		return nil, fmt.Errorf("%s: %w", name, errEvicted)
	}
	tenant := m.Tenant
	if tenant == "" {
		tenant = "default"
	}
	r.queued = tr.held.Load() >= int64(tr.maxInflight)
	r.t[sCore0] = tr.now()
	if r.t[sHandler] == 0 {
		r.t[sHandler] = r.t[sCore0] // an in-process probe: no handler
	}
	ticket, rej := tr.adm.Admit(tenant, name, 0)
	r.t[sAdmit] = tr.now()
	if rej != nil {
		return nil, rej
	}
	tr.held.Add(1)
	defer tr.held.Add(-1)
	r.cold = cm.PooledInstances() == 0
	sb, err := sandbox.New(cm, body, sandbox.Options{
		Entry:           m.Entry,
		KV:              tr.w.cfg.KV,
		Tenant:          m.Tenant,
		NoRecycle:       tr.w.cfg.NoRecycle,
		MaxHandoffBytes: tr.w.cfg.MaxHandoffBytes,
	})
	r.t[sNew] = tr.now()
	if err != nil {
		ticket.Done(admission.OutcomeTrap, 0)
		return nil, err
	}
	if err := tr.pool.Submit(sb); err != nil {
		ticket.Done(admission.OutcomeTrap, 0)
		return nil, err
	}
	r.t[sSubmit] = tr.now()
	timer, _ := tr.timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(requestTimeout)
	} else {
		timer.Reset(requestTimeout)
	}
	select {
	case <-sb.Done():
		if timer.Stop() {
			tr.timers.Put(timer)
		}
	case <-timer.C:
		tr.timers.Put(timer)
		if sb.Abandon() {
			ticket.Done(admission.OutcomeTimeout, requestTimeout)
			return nil, fmt.Errorf("%s: request timed out", name)
		}
		<-sb.Done()
	}
	r.t[sWoke] = tr.now()
	r.t[sFirstRun] = int64(sb.FirstRunAt.Sub(tr.epoch))
	r.t[sDoneAt] = int64(sb.DoneAt.Sub(tr.epoch))
	r.preempt = sb.Preemptions
	r.gas = sb.Gas()
	lat := sb.Latency()
	if sb.State() == sandbox.StateTrapped {
		err := sb.Err
		sb.Release()
		ticket.Done(admission.OutcomeTrap, lat)
		return nil, err
	}
	resp, err := sb.Output()
	var out []byte
	if err == nil && len(resp) > 0 {
		out = append([]byte(nil), resp...)
	}
	r.t[sOutput] = tr.now()
	sb.Release()
	r.t[sRelease] = tr.now()
	if err != nil {
		ticket.Done(admission.OutcomeTrap, lat)
		return nil, err
	}
	ticket.Done(admission.OutcomeSuccess, lat)
	r.t[sCore1] = tr.now()
	return out, nil
}

// counters is a quiesced snapshot of the program's per-layer counters.
type counters struct {
	shed       uint64
	promotions uint64
	recompile  time.Duration
	coldRecomp uint64
	evictions  uint64
	pipes      map[string]core.PipelineStats
}

func (tr *tracer) counters() counters {
	var c counters
	if tr.w.composed {
		c.shed = tr.adm.Stats().Shed()
	} else if snap, ok := tr.rt.AdmissionStats(); ok {
		c.shed = snap.Shed()
	}
	if ts, ok := tr.rt.TieringStats(); ok {
		c.promotions, c.recompile = ts.Promotions, ts.TotalRecompile
	}
	if cs, ok := tr.rt.CacheStats(); ok {
		c.coldRecomp = cs.ColdRecompiles
		c.evictions = cs.PurgedIdle + cs.DroppedSnapshots + cs.DroppedBodies
	}
	c.pipes = map[string]core.PipelineStats{}
	for _, name := range tr.rt.Pipelines() {
		p, _ := tr.rt.LookupPipeline(name)
		c.pipes[name] = p.Stats()
	}
	return c
}

// phase serves the workload through the traced handler: warm-up, then one
// recorded window. It returns the client's tally, the request records, the
// counter snapshots around the window and the sampled worker utilization.
func (tr *tracer) phase(seed int64, window time.Duration) (*tally, []record, counters, counters, float64, error) {
	handler := tr.invokeHandler
	if tr.w.composed {
		handler = tr.composedHandler
	}
	srv := &httpd.Server{Handler: handler, ReadTimeout: requestTimeout, WriteTimeout: requestTimeout, MaxConns: tr.w.cfg.MaxConns}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, counters{}, counters{}, 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		ln.Close()
		<-served
	}()
	addr := ln.Addr().String()
	drive(addr, tr.w.plan(newRand(seed^warmSalt), warmup), warmup, true)
	if !tr.pool.Quiesce(30 * time.Second) {
		return nil, nil, counters{}, counters{}, 0, fmt.Errorf("traced warm-up did not quiesce")
	}
	tr.take()
	before := tr.counters()
	stop := make(chan struct{})
	util := make(chan float64, 1)
	go func() { util <- sampleUtilization(tr.pool, stop) }()
	t := drive(addr, tr.w.plan(newRand(seed), window), window, true)
	close(stop)
	u := <-util
	if !tr.pool.Quiesce(30 * time.Second) {
		return nil, nil, counters{}, counters{}, 0, fmt.Errorf("traced phase did not quiesce")
	}
	return t, tr.take(), before, tr.counters(), u, nil
}

// sampleUtilization averages Pool.Utilization every 2 ms until stop.
func sampleUtilization(p *sched.Pool, stop <-chan struct{}) float64 {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var sum float64
	var n int
	for {
		select {
		case <-stop:
			return share(sum, float64(n))
		case <-tick.C:
			sum += p.Utilization()
			n++
		}
	}
}
