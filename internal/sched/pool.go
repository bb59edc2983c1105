package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/engine"
	"sledge/internal/sandbox"
)

// Distribution selects the work-distribution mechanism (the paper's §3.4
// decoupling; the non-default modes exist for the ablation benchmarks).
type Distribution int

// Work-distribution modes.
const (
	// DistWorkStealing is the default scale-out topology: every worker
	// owns its own run queue, the listener submits directly to the
	// least-loaded worker's inbox (no dispatcher goroutine, no channel
	// hop), idle workers steal half a victim's queue in one batch, and
	// parked workers receive targeted wakeups.
	DistWorkStealing Distribution = iota + 1
	// DistGlobalLock uses a mutex-protected global FIFO: work-conserving
	// but contended (the paper's "global queue is not scalable" strawman).
	DistGlobalLock
	// DistStatic assigns requests round-robin to per-worker inboxes with
	// no stealing: scalable but not work-conserving.
	DistStatic
	// DistGlobalDeque is the paper's original design, preserved as an
	// ablation: a single global lock-free Chase–Lev deque owned by a
	// dispatcher goroutine that Submit feeds over a channel; workers
	// steal one sandbox per scheduling round.
	DistGlobalDeque
)

// String returns the mode name.
func (d Distribution) String() string {
	switch d {
	case DistWorkStealing:
		return "work-stealing"
	case DistGlobalLock:
		return "global-lock"
	case DistStatic:
		return "static"
	case DistGlobalDeque:
		return "global-deque"
	}
	return fmt.Sprintf("dist(%d)", int(d))
}

// Policy selects the per-worker scheduling policy.
type Policy int

// Scheduling policies.
const (
	// PolicyPreemptiveRR is the paper's design: round-robin with an
	// involuntary preemption quantum.
	PolicyPreemptiveRR Policy = iota + 1
	// PolicyCooperative runs each sandbox until it completes or blocks —
	// the head-of-line-blocking strawman of §3.4.
	PolicyCooperative
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyPreemptiveRR:
		return "preemptive-rr"
	case PolicyCooperative:
		return "cooperative"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config configures a worker pool.
type Config struct {
	// Workers is the number of worker cores. Default 1.
	Workers int
	// Quantum is the preemption time slice (paper default: 5 ms).
	Quantum time.Duration
	// FuelPerMS is the calibrated gas rate used to convert the quantum to
	// deterministic fuel (fuel and gas share units); 0 calibrates.
	FuelPerMS int64
	// Policy selects preemptive vs cooperative scheduling.
	Policy Policy
	// Distribution selects the work-distribution mechanism.
	Distribution Distribution
	// IdlePoll bounds how long an idle worker sleeps before rechecking
	// its event loop. Default 500µs. With targeted wakeups this is only a
	// backstop: the request path never waits on it.
	IdlePoll time.Duration
	// MaxLocalRunq bounds how many sandboxes a worker admits into its
	// local round-robin queue before it stops pulling new requests.
	// Default 64.
	MaxLocalRunq int
}

// DefaultQuantum mirrors the paper's 5 ms time slice.
const DefaultQuantum = 5 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Policy == 0 {
		c.Policy = PolicyPreemptiveRR
	}
	if c.Distribution == 0 {
		c.Distribution = DistWorkStealing
	}
	if c.IdlePoll == 0 {
		c.IdlePoll = 500 * time.Microsecond
	}
	if c.MaxLocalRunq == 0 {
		c.MaxLocalRunq = 64
	}
	return c
}

// Stats are cumulative pool counters.
type Stats struct {
	Submitted    uint64
	Completed    uint64
	Trapped      uint64
	Preemptions  uint64
	Steals       uint64
	StealBatches uint64
	Blocked      uint64
}

// stealBatchMax bounds one StealBatch transfer (and sizes the per-worker
// scratch buffer the batch is staged in before the CAS commits it).
const stealBatchMax = 64

// pad separates owner-hot atomics from fields read by other goroutines so
// a worker bumping its counters does not false-share a cache line with
// peers polling its published load.
type pad [64]byte

// Pool is the Sledge worker pool: N worker goroutines (the paper's pinned
// worker cores), a work-distribution structure, and per-worker run queues
// and event loops.
type Pool struct {
	cfg         Config
	fuelQuantum int64

	workers []*worker
	// rr rotates Submit's tie-breaks and thieves' victim scans so neither
	// systematically favours low worker ids.
	rr atomic.Uint64

	// global + submitCh implement the DistGlobalDeque ablation (the
	// paper's original single-deque design with its dispatcher hop).
	global   *Deque[sandbox.Sandbox]
	submitCh chan *sandbox.Sandbox

	lockQ struct {
		mu sync.Mutex
		q  []*sandbox.Sandbox
		// n mirrors len(q) so QueueDepth and the idle re-check read the
		// backlog without the mutex.
		n atomic.Int64
	}

	// nparked counts workers with an armed parker; wakers skip the scan
	// entirely when it is zero.
	nparked atomic.Int64

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	inflight  atomic.Int64
	submitted atomic.Uint64
	// extTrapped counts sandboxes failed outside a worker context (queued
	// work failed by Stop); Stats folds it into Trapped.
	extTrapped atomic.Uint64

	// Quiesce waiters share one broadcast channel, closed by the inflight
	// decrement that reaches zero. quiesceArmed keeps the completion hot
	// path to a single atomic load when nobody is waiting.
	quiesceMu    sync.Mutex
	quiesceCh    chan struct{}
	quiesceArmed atomic.Bool
}

// worker is one scheduling core: an owned run queue (peers steal batches
// from its head), a submission inbox, a blocked-I/O timer heap, a parker,
// and owner-written counters aggregated by Stats.
type worker struct {
	id   int
	pool *Pool

	runq   *Runq[sandbox.Sandbox]
	inbox  inbox
	timers timerHeap

	// overflow holds admitted work that exceeded MaxLocalRunq when an
	// inbox chain or a stolen batch was larger than the run queue's
	// remaining room. Owner-only; drains into runq as room appears.
	overflowHead *sandbox.Sandbox
	overflowTail *sandbox.Sandbox
	overflowN    int64

	// stealBuf stages a StealBatch before its CAS commits; reused across
	// steals so the steal path allocates nothing.
	stealBuf [stealBatchMax]*sandbox.Sandbox

	park *parker
	// idleTimer is reused across parks; a worker that cycles between idle
	// and running on every request must not allocate a fresh timer per
	// cycle (the zero-allocation steady-state path).
	idleTimer *time.Timer

	_ pad

	// qlen publishes runq + blocked + overflow once per loop iteration so
	// QueueDepth and Submit's least-loaded scan read local backlogs
	// without touching worker-owned structures.
	qlen atomic.Int64
	// running is 1 while the worker is mid-quantum — the per-worker shard
	// of the old global busy counter (the utilization signal).
	running atomic.Int32

	_ pad

	// Owner-written counters, aggregated on read by Pool.Stats.
	completed    atomic.Uint64
	trapped      atomic.Uint64
	preemptions  atomic.Uint64
	steals       atomic.Uint64
	stealBatches atomic.Uint64
	blocked      atomic.Uint64
}

// NewPool starts the worker pool.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:    cfg,
		global: NewDeque[sandbox.Sandbox](256),
		stopCh: make(chan struct{}),
	}
	if cfg.Policy == PolicyPreemptiveRR {
		rate := cfg.FuelPerMS
		if rate == 0 {
			rate = engine.CalibrateFuelRate()
		}
		p.fuelQuantum = int64(float64(rate) * cfg.Quantum.Seconds() * 1000)
		if p.fuelQuantum < 1000 {
			p.fuelQuantum = 1000
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:   i,
			pool: p,
			runq: NewRunq[sandbox.Sandbox](cfg.MaxLocalRunq),
			park: newParker(),
		}
		p.workers = append(p.workers, w)
	}
	if cfg.Distribution == DistGlobalDeque {
		p.submitCh = make(chan *sandbox.Sandbox, 1024)
		p.wg.Add(1)
		go p.dispatch()
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go w.loop()
	}
	return p
}

// ErrStopped reports a Submit after Stop.
var ErrStopped = errors.New("sched: pool stopped")

// Submit hands a sandbox to the pool. The sandbox's OnComplete callback
// fires on a worker when it finishes, after the pool's counters (Stats)
// include its outcome.
func (p *Pool) Submit(sb *sandbox.Sandbox) error {
	if p.stopped.Load() {
		return ErrStopped
	}
	p.submitted.Add(1)
	p.inflight.Add(1)
	switch p.cfg.Distribution {
	case DistWorkStealing:
		w := p.pickWorker()
		w.inbox.push(sb)
		if p.stopped.Load() {
			// Raced with Stop: the workers may already be gone, so fail
			// whatever the inbox holds exactly as Stop's drain would.
			p.failInbox(w)
			return ErrStopped
		}
		p.wakeWorker(w)
	case DistGlobalDeque:
		select {
		case p.submitCh <- sb:
		case <-p.stopCh:
			p.decInflight()
			return ErrStopped
		}
	case DistGlobalLock:
		p.lockQ.mu.Lock()
		p.lockQ.q = append(p.lockQ.q, sb)
		p.lockQ.n.Store(int64(len(p.lockQ.q)))
		p.lockQ.mu.Unlock()
		p.wakeAny(0)
	case DistStatic:
		w := p.workers[p.rr.Add(1)%uint64(len(p.workers))]
		w.inbox.push(sb)
		if p.stopped.Load() {
			p.failInbox(w)
			return ErrStopped
		}
		// No stealing in static mode: only the assigned worker can run
		// this sandbox, so only it is worth waking.
		w.park.wake(&p.nparked)
	}
	return nil
}

// SubmitAffine hands a sandbox to the pool with affinity for one worker's
// queue: a pipeline's continuation goes to the worker that ran the previous
// stage (sandbox.LastWorker), so the handoff buffer it just wrote is still
// hot in that core's cache. Affinity is a placement hint, not a pin — the
// continuation lands in the worker's ordinary inbox, where idle peers can
// still steal it (see worker.steal), so work-conservation holds even when
// the preferred worker is stuck in a long quantum.
//
// In the global-queue distributions there is no per-worker placement to
// bias, and an out-of-range hint means the previous stage never ran here;
// both fall back to Submit's normal balancing.
func (p *Pool) SubmitAffine(sb *sandbox.Sandbox, worker int) error {
	if worker < 0 || worker >= len(p.workers) {
		return p.Submit(sb)
	}
	switch p.cfg.Distribution {
	case DistWorkStealing, DistStatic:
	default:
		return p.Submit(sb)
	}
	if p.stopped.Load() {
		return ErrStopped
	}
	p.submitted.Add(1)
	p.inflight.Add(1)
	w := p.workers[worker]
	w.inbox.push(sb)
	if p.stopped.Load() {
		// Raced with Stop: the workers may already be gone, so fail
		// whatever the inbox holds exactly as Stop's drain would.
		p.failInbox(w)
		return ErrStopped
	}
	if p.cfg.Distribution == DistStatic {
		// No stealing in static mode: only the assigned worker can run
		// this sandbox, so only it is worth waking.
		w.park.wake(&p.nparked)
	} else {
		p.wakeWorker(w)
	}
	return nil
}

// pickWorker returns the least-loaded worker, tie-broken by a rotating
// start index so equal-load submissions spread round-robin.
func (p *Pool) pickWorker() *worker {
	ws := p.workers
	if len(ws) == 1 {
		return ws[0]
	}
	start := int(p.rr.Add(1) % uint64(len(ws)))
	best := ws[start]
	bestLoad := best.load()
	for i := 1; i < len(ws) && bestLoad > 0; i++ {
		w := ws[(start+i)%len(ws)]
		if l := w.load(); l < bestLoad {
			best, bestLoad = w, l
		}
	}
	return best
}

// load is the worker's published backlog: queued + blocked + inbox, plus
// one if it is mid-quantum.
func (w *worker) load() int64 {
	return w.qlen.Load() + w.inbox.n.Load() + int64(w.running.Load())
}

// wakeWorker delivers a targeted wakeup to w, falling back to any parked
// peer (which can steal the work) when w is already awake.
func (p *Pool) wakeWorker(w *worker) {
	if w.park.wake(&p.nparked) {
		return
	}
	if p.nparked.Load() > 0 {
		p.wakeAny(w.id + 1)
	}
}

// wakeAny wakes one parked worker, scanning from start.
func (p *Pool) wakeAny(start int) {
	if p.nparked.Load() == 0 {
		return
	}
	n := len(p.workers)
	for i := 0; i < n; i++ {
		if p.workers[(start+i)%n].park.wake(&p.nparked) {
			return
		}
	}
}

// dispatch is the DistGlobalDeque deque owner: it funnels submissions from
// any goroutine into single-owner PushBottom calls (the paper's listener
// core role, and the per-request hop the default topology eliminates).
func (p *Pool) dispatch() {
	defer p.wg.Done()
	for {
		select {
		case sb := <-p.submitCh:
			p.global.PushBottom(sb)
			p.wakeAny(0)
		case <-p.stopCh:
			return
		}
	}
}

// Stats returns a snapshot of the pool counters, aggregating the
// per-worker shards.
func (p *Pool) Stats() Stats {
	st := Stats{
		Submitted: p.submitted.Load(),
		Trapped:   p.extTrapped.Load(),
	}
	for _, w := range p.workers {
		st.Completed += w.completed.Load()
		st.Trapped += w.trapped.Load()
		st.Preemptions += w.preemptions.Load()
		st.Steals += w.steals.Load()
		st.StealBatches += w.stealBatches.Load()
		st.Blocked += w.blocked.Load()
	}
	return st
}

// Inflight reports sandboxes submitted but not yet finished.
func (p *Pool) Inflight() int { return int(p.inflight.Load()) }

// Workers reports the worker-core count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Busy reports workers currently executing a sandbox quantum, summed from
// the per-worker running flags (no shared counter on the quantum path).
func (p *Pool) Busy() int {
	n := 0
	for _, w := range p.workers {
		n += int(w.running.Load())
	}
	return n
}

// Utilization reports the fraction of workers mid-quantum, in [0, 1].
func (p *Pool) Utilization() float64 {
	return float64(p.Busy()) / float64(p.cfg.Workers)
}

// QueueDepth approximates sandboxes waiting for a core: the global
// distribution structures plus each worker's published local backlog. It
// is lock-free — every term is an atomic published by its owner — so the
// admission hot path can call it per request. The per-worker figures are
// refreshed once per scheduling iteration, so the value is a load signal,
// not an exact count.
func (p *Pool) QueueDepth() int {
	depth := int64(p.global.Size()+len(p.submitCh)) + p.lockQ.n.Load()
	for _, w := range p.workers {
		depth += w.qlen.Load() + w.inbox.n.Load()
	}
	if depth < 0 {
		depth = 0
	}
	return int(depth)
}

// FuelQuantum reports the per-slice fuel (0 in cooperative mode).
func (p *Pool) FuelQuantum() int64 { return p.fuelQuantum }

// Quiesce waits until no sandboxes are in flight or the timeout passes.
// The wait is event-driven: the completion that takes inflight to zero
// closes a broadcast channel, so a draining runtime does not burn a core
// polling.
func (p *Pool) Quiesce(timeout time.Duration) bool {
	if p.inflight.Load() == 0 {
		return true
	}
	p.quiesceMu.Lock()
	if p.quiesceCh == nil {
		p.quiesceCh = make(chan struct{})
		p.quiesceArmed.Store(true)
	}
	ch := p.quiesceCh
	p.quiesceMu.Unlock()
	if p.inflight.Load() == 0 {
		// The last completion raced arming; its notification may already
		// have passed, so don't wait for one.
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return p.inflight.Load() == 0
	}
}

// decInflight retires one in-flight sandbox, waking Quiesce waiters when
// the count reaches zero. The common case pays one extra atomic load.
func (p *Pool) decInflight() {
	if p.inflight.Add(-1) != 0 || !p.quiesceArmed.Load() {
		return
	}
	p.quiesceMu.Lock()
	if p.quiesceCh != nil && p.inflight.Load() == 0 {
		close(p.quiesceCh)
		p.quiesceCh = nil
		p.quiesceArmed.Store(false)
	}
	p.quiesceMu.Unlock()
}

// Stop shuts the pool down. In-flight sandboxes finish their current
// quantum; queued sandboxes are failed so waiters are released.
func (p *Pool) Stop() {
	if !p.stopped.CompareAndSwap(false, true) {
		return
	}
	close(p.stopCh)
	p.wg.Wait()
	// Fail anything left queued. Workers drained their local state on
	// exit; this sweeps the global structures and any submission that
	// raced shutdown.
	for {
		sb, ok := p.global.Steal()
		if !ok {
			break
		}
		p.finish(sb, true)
	}
	for p.submitCh != nil {
		select {
		case sb := <-p.submitCh:
			p.finish(sb, true)
			continue
		default:
		}
		break
	}
	p.lockQ.mu.Lock()
	q := p.lockQ.q
	p.lockQ.q = nil
	p.lockQ.n.Store(0)
	p.lockQ.mu.Unlock()
	for _, sb := range q {
		p.finish(sb, true)
	}
	for _, w := range p.workers {
		p.failInbox(w)
		for {
			sb, ok := w.runq.Pop()
			if !ok {
				break
			}
			p.finish(sb, true)
		}
	}
}

// failInbox drains a worker's inbox and fails everything in it.
func (p *Pool) failInbox(w *worker) {
	chain := w.inbox.takeAll()
	for chain != nil {
		next := chain.SchedNext
		chain.SchedNext = nil
		p.finish(chain, true)
		chain = next
	}
}

func (p *Pool) finish(sb *sandbox.Sandbox, failed bool) {
	if failed {
		sb.Fail(ErrStopped)
		p.extTrapped.Add(1)
	}
	p.decInflight()
	sb.FinishNotify() // may recycle sb: last touch
}

// ---- worker ----

func (w *worker) loop() {
	p := w.pool
	defer p.wg.Done()
	for {
		if p.stopped.Load() {
			w.drainStop()
			return
		}
		w.drainTimers()
		w.admit()
		sb, ok := w.runq.Pop()
		// Published after the pop: the sandbox about to run is counted by
		// running, not as queued.
		w.qlen.Store(int64(w.runq.Len()+w.timers.len()) + w.overflowN)
		if !ok {
			w.idleWait()
			continue
		}
		if w.runq.Len() > 0 && p.cfg.Distribution != DistStatic && p.nparked.Load() > 0 {
			// Surplus behind this sandbox that an idle peer could steal.
			p.wakeAny(w.id + 1)
		}
		if sb.Abandoned() {
			// The waiter timed out; don't spend another quantum on it.
			sb.Fail(sandbox.ErrAbandoned)
			w.trapped.Add(1)
			p.decInflight()
			sb.FinishNotify() // recycles sb: last touch
			continue
		}
		prevPre := sb.Preemptions
		sb.LastWorker.Store(int32(w.id))
		w.running.Store(1)
		st := sb.RunQuantum(p.fuelQuantum)
		w.running.Store(0)
		switch st {
		case sandbox.StateRunnable:
			w.preemptions.Add(sb.Preemptions - prevPre)
			// Arrivals waiting in the inbox share the core at once (§3.4):
			// queue them ahead of the preempted sandbox, not behind it for
			// another quantum.
			if room := p.cfg.MaxLocalRunq - w.runq.Len() - 1; room > 0 {
				w.drainInbox(room)
			}
			w.runq.Push(sb)
		case sandbox.StateBlocked:
			w.blocked.Add(1)
			at, ok := sb.PendingReadyAt()
			if !ok {
				// Defensive: a blocked sandbox without a pending deadline
				// completes (and fails closed) on the next drain.
				at = time.Now()
			}
			w.timers.push(sb, at)
		case sandbox.StateComplete:
			w.completed.Add(1)
			p.decInflight()
			sb.FinishNotify() // may recycle sb: last touch
		case sandbox.StateTrapped:
			w.trapped.Add(1)
			p.decInflight()
			sb.FinishNotify() // may recycle sb: last touch
		}
	}
}

// admit pulls new requests from the distribution structure into the local
// round-robin queue, bounded by MaxLocalRunq. The paper integrates request
// dequeueing into the scheduling loop so newly arrived short functions
// immediately share the core with long-running sandboxes (temporal
// isolation across admission).
func (w *worker) admit() {
	p := w.pool
	room := p.cfg.MaxLocalRunq - w.runq.Len()
	if room <= 0 {
		return
	}
	switch p.cfg.Distribution {
	case DistWorkStealing:
		w.drainInbox(room)
		if w.runq.Len() == 0 {
			w.steal()
		}
	case DistGlobalDeque:
		// One element per round, as in the paper's original loop.
		if sb, ok := p.global.Steal(); ok {
			w.steals.Add(1)
			w.runq.Push(sb)
		}
	case DistGlobalLock:
		p.lockQ.mu.Lock()
		if len(p.lockQ.q) > 0 {
			sb := p.lockQ.q[0]
			copy(p.lockQ.q, p.lockQ.q[1:])
			p.lockQ.q = p.lockQ.q[:len(p.lockQ.q)-1]
			p.lockQ.n.Store(int64(len(p.lockQ.q)))
			p.lockQ.mu.Unlock()
			w.runq.Push(sb)
			return
		}
		p.lockQ.mu.Unlock()
	case DistStatic:
		w.drainInbox(room)
	}
}

// drainInbox moves up to room sandboxes from the overflow chain and the
// inbox into the run queue; anything beyond room waits on the overflow
// chain (it is already admitted, just not yet queued).
func (w *worker) drainInbox(room int) {
	for room > 0 && w.overflowHead != nil {
		sb := w.overflowHead
		w.overflowHead = sb.SchedNext
		if w.overflowHead == nil {
			w.overflowTail = nil
		}
		sb.SchedNext = nil
		w.overflowN--
		w.runq.Push(sb)
		room--
	}
	if w.inbox.n.Load() == 0 {
		return
	}
	chain := w.inbox.takeAll()
	for chain != nil {
		next := chain.SchedNext
		chain.SchedNext = nil
		if room > 0 {
			w.runq.Push(chain)
			room--
		} else {
			w.overflowAppend(chain)
		}
		chain = next
	}
}

func (w *worker) overflowAppend(sb *sandbox.Sandbox) {
	sb.SchedNext = nil
	if w.overflowTail == nil {
		w.overflowHead, w.overflowTail = sb, sb
	} else {
		w.overflowTail.SchedNext = sb
		w.overflowTail = sb
	}
	w.overflowN++
}

// steal finds a victim and moves work here: first half of a peer's run
// queue in one batched transfer, then — if every run queue is empty — a
// busy peer's whole unadmitted inbox, so queued submissions never wait for
// their worker to surface from a long quantum.
func (w *worker) steal() {
	p := w.pool
	n := len(p.workers)
	if n == 1 {
		return
	}
	max := p.cfg.MaxLocalRunq - w.runq.Len()
	if max > stealBatchMax {
		max = stealBatchMax
	}
	if max <= 0 {
		return
	}
	start := int(p.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w {
			continue
		}
		if k := v.runq.StealBatch(w.stealBuf[:], max); k > 0 {
			for j := 0; j < k; j++ {
				w.runq.Push(w.stealBuf[j])
				w.stealBuf[j] = nil
			}
			w.steals.Add(uint64(k))
			w.stealBatches.Add(1)
			return
		}
	}
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w || v.inbox.len() == 0 {
			continue
		}
		chain := v.inbox.takeAll()
		if chain == nil {
			continue
		}
		k := uint64(0)
		for chain != nil {
			next := chain.SchedNext
			chain.SchedNext = nil
			if w.runq.Len() < p.cfg.MaxLocalRunq {
				w.runq.Push(chain)
			} else {
				w.overflowAppend(chain)
			}
			chain = next
			k++
		}
		w.steals.Add(k)
		w.stealBatches.Add(1)
		return
	}
}

// drainTimers completes blocked I/O whose deadline passed and requeues the
// sandboxes — the per-worker analog of the paper's libuv loop, checked
// before scheduling. The heap makes the no-work-due case O(1) instead of a
// scan over every blocked sandbox.
func (w *worker) drainTimers() {
	if w.timers.len() == 0 {
		return
	}
	now := time.Now().UnixNano()
	for {
		sb, ok := w.timers.popDue(now)
		if !ok {
			return
		}
		if err := sb.CompletePending(); err != nil {
			sb.Fail(err)
			w.trapped.Add(1)
			w.pool.decInflight()
			sb.FinishNotify() // may recycle sb: last touch
			continue
		}
		w.runq.Push(sb)
	}
}

// readyWork is the post-arm re-check: every source that could hold or
// produce work for this worker. Called with the parker armed, it closes
// the lost-wakeup window — either this check observes work published
// before the wake attempt, or the waker observes the armed parker and
// delivers a token.
func (w *worker) readyWork() bool {
	p := w.pool
	if w.inbox.n.Load() > 0 || w.runq.Len() > 0 || w.overflowN > 0 {
		return true
	}
	if at, ok := w.timers.nextAt(); ok && at <= time.Now().UnixNano() {
		return true
	}
	if p.stopped.Load() {
		return true
	}
	switch p.cfg.Distribution {
	case DistWorkStealing:
		for _, v := range p.workers {
			if v != w && (v.runq.Len() > 0 || v.inbox.n.Load() > 0) {
				return true
			}
		}
	case DistGlobalDeque:
		return p.global.Size() > 0 || len(p.submitCh) > 0
	case DistGlobalLock:
		return p.lockQ.n.Load() > 0
	}
	return false
}

// idleWait parks the worker until new work may be available: a targeted
// wake token, the next blocked-I/O deadline, or the backstop poll.
func (w *worker) idleWait() {
	p := w.pool
	w.park.arm(&p.nparked)
	if w.readyWork() {
		w.park.disarm(&p.nparked)
		return
	}
	wait := p.cfg.IdlePoll
	if at, ok := w.timers.nextAt(); ok {
		d := time.Duration(at - time.Now().UnixNano())
		if d <= 0 {
			w.park.disarm(&p.nparked)
			return
		}
		if d < wait {
			wait = d
		}
	}
	if w.idleTimer == nil {
		w.idleTimer = time.NewTimer(wait)
	} else {
		w.idleTimer.Reset(wait)
	}
	w.park.wait(&p.nparked, w.idleTimer, p.stopCh)
	// Quiesce the timer for the next Reset. This goroutine is the only
	// receiver, so a non-blocking drain after a failed Stop is race-free.
	if !w.idleTimer.Stop() {
		select {
		case <-w.idleTimer.C:
		default:
		}
	}
}

// drainStop abandons local work so shutdown is bounded even when a sandbox
// would never finish (cooperative CPU hogs).
func (w *worker) drainStop() {
	p := w.pool
	for {
		sb, ok := w.runq.Pop()
		if !ok {
			break
		}
		p.finish(sb, true)
	}
	for w.timers.len() > 0 {
		p.finish(w.timers.pop(), true)
	}
	for w.overflowHead != nil {
		sb := w.overflowHead
		w.overflowHead = sb.SchedNext
		sb.SchedNext = nil
		p.finish(sb, true)
	}
	w.overflowTail = nil
	w.overflowN = 0
	p.failInbox(w)
	w.qlen.Store(0)
}
