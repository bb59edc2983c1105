// Package admission is Sledge's admission-control and overload-management
// subsystem: it sits between the HTTP listener and the scheduler and
// decides, per request, whether to dispatch now, queue, or shed.
//
// Under offered load beyond capacity an unguarded runtime collapses: every
// request is dispatched, workers thrash across an unbounded run queue, and
// all tenants' p99 explodes together. The controller keeps goodput near
// capacity and admitted-request latency bounded with four mechanisms:
//
//   - Per-tenant token buckets (rate + burst) reject sustained overage with
//     429 + Retry-After before it reaches the queue.
//   - A weighted deficit-round-robin (DRR) admit queue grants scheduler
//     slots across backlogged tenants in proportion to their weights, so a
//     hot tenant cannot starve a well-behaved one. Costs are the per-module
//     EWMA service-time estimate, making the shares CPU-proportional.
//   - Global in-flight and queue-depth bounds plus deadline-aware shedding:
//     a request whose estimated queueing delay already exceeds its deadline
//     is rejected immediately with 503 + Retry-After instead of timing out
//     after consuming a worker.
//   - A per-module circuit breaker (closed → open → half-open) stops a
//     crashing function from burning sandbox instantiations.
//
// Graceful drain (StartDrain/WaitIdle) stops admitting, lets queued and
// in-flight requests finish, and then the runtime can close.
package admission

import (
	"fmt"
	"sync"
	"time"
)

// Outcome classifies a finished request for the breaker and the
// service-time estimator.
type Outcome int

// Outcomes.
const (
	// OutcomeSuccess is a normal completion.
	OutcomeSuccess Outcome = iota
	// OutcomeTrap is a function failure (wasm trap / abort).
	OutcomeTrap
	// OutcomeTimeout is a request that exceeded the runtime's request
	// timeout (an overload signal, not a function defect).
	OutcomeTimeout
)

// TenantConfig overrides per-tenant admission parameters.
type TenantConfig struct {
	// Weight is the DRR share (default 1). A weight-2 tenant receives
	// twice the capacity of a weight-1 tenant under contention.
	Weight int
	// Rate overrides Config.TenantRate for this tenant (requests/sec;
	// 0 inherits, negative disables the bucket).
	Rate float64
	// Burst overrides Config.TenantBurst.
	Burst float64
}

// Config configures a Controller.
type Config struct {
	// MaxInflight bounds concurrently dispatched requests. Default
	// 2×Workers.
	MaxInflight int
	// MaxQueue bounds the total admit queue. Default 256.
	MaxQueue int
	// MaxQueuePerTenant bounds one tenant's queue. Default MaxQueue.
	MaxQueuePerTenant int
	// Workers is the capacity hint used to convert queue length into an
	// estimated queueing delay. Default 1.
	Workers int
	// DefaultDeadline is the shed horizon for requests that carry none.
	// Default 30s.
	DefaultDeadline time.Duration
	// TenantRate is the default token-bucket rate (requests/sec) applied
	// to every tenant; 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the default bucket capacity. Default max(1, TenantRate).
	TenantBurst float64
	// Tenants holds per-tenant overrides keyed by tenant name.
	Tenants map[string]TenantConfig
	// DRRQuantum is the deficit added per round per unit weight,
	// denominated in estimated service time. Default 5ms (the paper's
	// scheduling quantum).
	DRRQuantum time.Duration
	// EWMAAlpha is the service-time estimator smoothing factor. Default 0.25.
	EWMAAlpha float64
	// DefaultEstimate seeds the estimator for modules with no history.
	// Default DefaultEstimate.
	DefaultEstimate time.Duration
	// Breaker configures the per-module circuit breakers.
	Breaker BreakerConfig
	// Probe, if set, reports scheduler load (sandboxes in flight) used in
	// queueing-delay estimates; nil falls back to the controller's own
	// in-flight count.
	Probe func() (inflight int)
	// QueueDepth, if set, reports sandboxes queued in the scheduler but
	// not yet started. It refines queueing-delay estimates: released
	// requests still waiting for a core are backlog ahead of a new
	// arrival even when the in-flight count alone looks absorbable.
	QueueDepth func() int
	// SeedEstimate, if set, provides an initial service-time estimate for
	// a module the controller has not yet observed (e.g. from the module
	// registry's mean-latency stats).
	SeedEstimate func(module string) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = c.MaxQueue
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRate
	}
	if c.DRRQuantum <= 0 {
		c.DRRQuantum = 5 * time.Millisecond
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.25
	}
	if c.DefaultEstimate <= 0 {
		c.DefaultEstimate = DefaultEstimate
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// DefaultEstimate is Config.DefaultEstimate's default: the service estimate
// charged a module with no samples and no seed.
const DefaultEstimate = time.Millisecond

// Reason classifies a refused admission. The constants below are the
// controller's own shed causes; federated callers (internal/cluster) define
// additional Reason values for cluster-level sheds.
type Reason string

// Controller rejection reasons.
const (
	// ReasonRateLimited is a per-tenant token-bucket rejection (HTTP 429).
	ReasonRateLimited Reason = "rate-limited"
	// ReasonQueueFull is a global or per-tenant admit-queue bound rejection.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDeadlineShed is a deadline-aware shed: the estimated queue wait
	// (or the actual wait, for queued requests) exceeded the deadline.
	ReasonDeadlineShed Reason = "deadline-shed"
	// ReasonBreakerOpen is a circuit-breaker rejection.
	ReasonBreakerOpen Reason = "breaker-open"
	// ReasonDraining is a graceful-shutdown rejection.
	ReasonDraining Reason = "draining"
)

// Rejection is a refused admission. It implements error so non-HTTP
// callers can surface it; the HTTP layer maps it to a status line.
type Rejection struct {
	// Status is the HTTP status to reply with: 429 for rate-limit
	// rejections, 503 for overload/breaker/drain rejections.
	Status int
	// RetryAfter is the client back-off hint. Every rejection carries a
	// positive hint: cooldown remainder for breaker sheds, the estimated
	// queue-drain time for overload sheds, floored so offloading clients
	// (and the cluster router) always have a usable back-off.
	RetryAfter time.Duration
	// Reason is the shed cause.
	Reason Reason
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: %s (HTTP %d, retry after %v)", r.Reason, r.Status, r.RetryAfter)
}

// Offloadable reports whether a different node could plausibly serve the
// request this rejection shed. Queue, deadline, breaker, and drain sheds all
// describe node-local saturation or failure — a peer with capacity can still
// serve the request. Rate-limit rejections are tenant policy: offloading one
// to a peer would let a tenant launder traffic past its contracted rate by
// overflowing from node to node.
func (r *Rejection) Offloadable() bool {
	return r.Reason != ReasonRateLimited
}

// waiter is one queued admission request.
type waiter struct {
	tenant  *tenantState
	module  string
	cost    int64 // estimated service nanos, the DRR charge
	ch      chan struct{}
	granted bool
}

// tenantState is one tenant's bucket, queue, and DRR bookkeeping.
type tenantState struct {
	name    string
	weight  int
	bucket  *bucket
	q       []*waiter
	deficit int64
	active  bool // member of the DRR active ring
	topped  bool // deficit already topped up for the current visit

	admitted uint64
	shed     uint64
}

// Controller is the admission controller. One instance guards one runtime.
type Controller struct {
	cfg Config
	now func() time.Time

	mu       sync.Mutex
	draining bool
	inflight int
	queued   int
	tenants  map[string]*tenantState
	ring     []*tenantState // DRR active ring; head is the current tenant
	breakers map[string]*breaker
	est      map[string]*ewma
	// estGen is the per-module estimator generation, bumped by
	// ResetModule/ResetEstimate. A Ticket captures the generation at Admit;
	// a completion whose generation is stale (the module was replaced or
	// tier-swapped while it was in flight) must not feed the estimator —
	// its sample describes code that is no longer installed and would
	// repollute the freshly reset estimate.
	estGen map[string]uint64

	admitted   uint64
	shedRate   uint64 // 429: token bucket
	shedQueue  uint64 // 503: queue bounds
	shedDead   uint64 // 503: deadline-aware shed (incl. queue-wait expiry)
	shedBreak  uint64 // 503: breaker open
	shedDrain  uint64 // 503: draining
	grantWaits uint64 // requests that queued before being granted
}

// ewma is an exponentially weighted moving average of service time.
type ewma struct {
	val float64 // nanos
	n   uint64
}

func (e *ewma) update(alpha float64, sample time.Duration) {
	s := float64(sample)
	if s < 0 {
		return
	}
	if e.n == 0 {
		e.val = s
	} else {
		e.val = alpha*s + (1-alpha)*e.val
	}
	e.n++
}

// New builds a Controller.
func New(cfg Config) *Controller {
	return newWithClock(cfg, time.Now)
}

// newWithClock injects a deterministic clock for tests.
func newWithClock(cfg Config, now func() time.Time) *Controller {
	return &Controller{
		cfg:      cfg.withDefaults(),
		now:      now,
		tenants:  make(map[string]*tenantState),
		breakers: make(map[string]*breaker),
		est:      make(map[string]*ewma),
		estGen:   make(map[string]uint64),
	}
}

// Ticket is a granted admission; exactly one Done call returns the slot.
type Ticket struct {
	c      *Controller
	module string
	gen    uint64 // estimator generation captured at Admit
	done   bool
}

// Done returns the slot, feeds the service-time estimator, and advances the
// breaker. serviceTime is the observed execution latency; only successful
// completions feed the estimator.
func (t *Ticket) Done(outcome Outcome, serviceTime time.Duration) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	c.inflight--
	if outcome == OutcomeSuccess && t.gen == c.estGen[t.module] {
		// Traps can be arbitrarily early (e.g. instant aborts) and would
		// drag the estimate below the true service time of working calls;
		// timeouts report the whole request-timeout budget (default 30s),
		// and one such sample on a fast module inflates the estimate by
		// alpha×30s — enough to deadline-shed everything until successful
		// samples decay it back down. A stale generation means the module
		// was replaced or tier-swapped while this request was in flight:
		// the sample measured the old code, so it must not repollute the
		// reset estimator.
		c.estFor(t.module).update(c.cfg.EWMAAlpha, serviceTime)
	}
	c.breakerFor(t.module).record(outcome, c.now())
	c.dispatchLocked()
}

// Admit asks to dispatch one request for module on behalf of tenant. It
// returns immediately when a slot is free (or the request is rejected),
// and otherwise blocks in the DRR admit queue until granted or until the
// request's deadline budget for queueing expires. deadline <= 0 uses
// Config.DefaultDeadline.
func (c *Controller) Admit(tenant, module string, deadline time.Duration) (*Ticket, *Rejection) {
	if deadline <= 0 {
		deadline = c.cfg.DefaultDeadline
	}
	c.mu.Lock()
	now := c.now()
	if c.draining {
		c.shedDrain++
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: time.Second, Reason: ReasonDraining}
	}
	ts := c.tenantFor(tenant, now)
	gen := c.estGen[module]
	// If allow claims the half-open probe slot, every rejection below must
	// hand it back (releaseProbe) — otherwise no Ticket ever reaches
	// record() and the breaker stays probe-locked, rejecting forever.
	brk := c.breakerFor(module)
	ok, probe, retry := brk.allow(now)
	if !ok {
		if retry <= 0 {
			// The cooldown boundary can round the remainder to zero; the
			// hint must stay positive so clients actually back off.
			retry = c.cfg.Breaker.Cooldown
		}
		c.shedBreak++
		ts.shed++
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: retry, Reason: ReasonBreakerOpen}
	}
	est := c.estimateLocked(module)
	// The 503 overload checks run before the bucket debit so a shed
	// request does not also consume rate tokens (which would turn into
	// spurious 429s for a within-rate tenant once the queue clears).
	if c.queued >= c.cfg.MaxQueue || len(ts.q) >= c.cfg.MaxQueuePerTenant {
		brk.releaseProbe(probe)
		c.shedQueue++
		ts.shed++
		wait := c.retryHintLocked(est)
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonQueueFull}
	}
	// Deadline-aware shed: if the queue ahead of us already implies more
	// waiting than the deadline allows, fail fast instead of timing out
	// after consuming a slot.
	if wait := c.loadLocked().Wait(est); wait > deadline {
		brk.releaseProbe(probe)
		c.shedDead++
		ts.shed++
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonDeadlineShed}
	}
	if !ts.bucket.take(now) {
		brk.releaseProbe(probe)
		c.shedRate++
		ts.shed++
		retry := ts.bucket.nextToken(now)
		c.mu.Unlock()
		return nil, &Rejection{Status: 429, RetryAfter: retry, Reason: ReasonRateLimited}
	}
	// Fast path: free slot and nobody queued ahead.
	if c.inflight < c.cfg.MaxInflight && c.queued == 0 {
		c.inflight++
		c.admitted++
		ts.admitted++
		c.mu.Unlock()
		return &Ticket{c: c, module: module, gen: gen}, nil
	}
	// Queue under DRR and wait for a grant.
	w := &waiter{tenant: ts, module: module, cost: int64(est)}
	w.ch = make(chan struct{})
	ts.q = append(ts.q, w)
	if !ts.active {
		ts.active = true
		c.ring = append(c.ring, ts)
	}
	c.queued++
	c.grantWaits++
	c.dispatchLocked()
	c.mu.Unlock()

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-w.ch:
		return &Ticket{c: c, module: module, gen: gen}, nil
	case <-timer.C:
		c.mu.Lock()
		if w.granted {
			// The grant raced the timer; honor it.
			c.mu.Unlock()
			return &Ticket{c: c, module: module, gen: gen}, nil
		}
		c.removeWaiterLocked(w)
		brk.releaseProbe(probe)
		c.shedDead++
		ts.shed++
		wait := c.retryHintLocked(c.estimateLocked(module))
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonDeadlineShed}
	}
}

// retryHintLocked derives a Retry-After hint for an overload shed: the
// estimated queue-drain wait, floored at one request's estimated service
// share so the hint never goes to zero. A zero hint would suppress the
// Retry-After header entirely and give an offloading router no back-off
// signal — a per-tenant queue bound, for example, can trip while the global
// queue (and hence the modeled delay) is empty.
func (c *Controller) retryHintLocked(est time.Duration) time.Duration {
	wait := c.loadLocked().Wait(est)
	if floor := est / time.Duration(c.cfg.Workers); wait < floor {
		wait = floor
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// tenantFor lazily creates tenant state.
func (c *Controller) tenantFor(name string, now time.Time) *tenantState {
	ts, ok := c.tenants[name]
	if ok {
		return ts
	}
	tc := c.cfg.Tenants[name]
	weight := tc.Weight
	if weight <= 0 {
		weight = 1
	}
	rate, burst := c.cfg.TenantRate, c.cfg.TenantBurst
	if tc.Rate != 0 {
		rate = tc.Rate
	}
	if tc.Burst != 0 {
		burst = tc.Burst
	}
	ts = &tenantState{name: name, weight: weight, bucket: newBucket(rate, burst, now)}
	c.tenants[name] = ts
	return ts
}

func (c *Controller) breakerFor(module string) *breaker {
	b, ok := c.breakers[module]
	if !ok {
		b = newBreaker(c.cfg.Breaker)
		c.breakers[module] = b
	}
	return b
}

func (c *Controller) estFor(module string) *ewma {
	e, ok := c.est[module]
	if !ok {
		e = &ewma{}
		if c.cfg.SeedEstimate != nil {
			if seed := c.cfg.SeedEstimate(module); seed > 0 {
				e.update(1, seed)
			}
		}
		c.est[module] = e
	}
	return e
}

// estimateLocked returns the per-request service-time estimate for module.
func (c *Controller) estimateLocked(module string) time.Duration {
	e := c.estFor(module)
	if e.n == 0 {
		return c.cfg.DefaultEstimate
	}
	return time.Duration(e.val)
}

// Load is the node's queueing state as the admission controller models it:
// the one input to the queue-wait formula (Wait), shared by the
// controller's own shed decisions, the node's published health and the
// cluster router's placement score.
type Load struct {
	// Queued is requests waiting in the admit queue.
	Queued int `json:"queued"`
	// Inflight is requests dispatched and not yet complete. The controller
	// takes the largest of its own ticket count, the scheduler probe (which
	// sees sandboxes the controller has already released, e.g. abandoned
	// ones still running) and its own count plus the scheduler queue depth
	// (released requests not yet started).
	Inflight int `json:"inflight"`
	// MaxInflight is the dispatch window.
	MaxInflight int `json:"max_inflight"`
	// Workers is the drain rate: how many requests complete in parallel.
	Workers int `json:"workers"`
}

// Wait estimates how long a request arriving now would wait before
// dispatch: the requests that must complete before a slot frees for it, at
// est each, spread over the workers. A free slot with an empty queue
// estimates zero.
//
//sledge:noalloc
func (l Load) Wait(est time.Duration) time.Duration {
	ahead := int64(l.Queued+l.Inflight) - int64(l.MaxInflight-1)
	if ahead <= 0 {
		return 0
	}
	workers := int64(l.Workers)
	if workers <= 0 {
		workers = 1
	}
	return time.Duration(ahead * int64(est) / workers)
}

// loadLocked reads the controller's current Load.
func (c *Controller) loadLocked() Load {
	inflight := c.inflight
	if c.cfg.Probe != nil {
		if p := c.cfg.Probe(); p > inflight {
			inflight = p
		}
	}
	if c.cfg.QueueDepth != nil {
		if d := c.inflight + c.cfg.QueueDepth(); d > inflight {
			inflight = d
		}
	}
	return Load{Queued: c.queued, Inflight: inflight, MaxInflight: c.cfg.MaxInflight, Workers: c.cfg.Workers}
}

// dispatchLocked grants free slots to queued waiters in weighted
// deficit-round-robin order: each visit tops the head tenant's deficit up
// by quantum×weight, then grants from its queue while the deficit covers
// the head request's estimated cost; an insufficient deficit rotates the
// tenant to the tail. Emptied tenants leave the ring and forfeit their
// deficit, so shares are proportional only among backlogged tenants
// (work-conserving).
func (c *Controller) dispatchLocked() {
	for c.inflight < c.cfg.MaxInflight && len(c.ring) > 0 {
		ts := c.ring[0]
		if len(ts.q) == 0 {
			ts.active = false
			ts.deficit = 0
			ts.topped = false
			c.ring = c.ring[1:]
			continue
		}
		// Top up once per visit. When the in-flight cap interrupts a visit
		// mid-grant, the next dispatch call resumes it with the remaining
		// deficit rather than topping up again — otherwise a tenant whose
		// grants trickle out one slot at a time would never rotate.
		if !ts.topped {
			ts.deficit += int64(c.cfg.DRRQuantum) * int64(ts.weight)
			ts.topped = true
		}
		for len(ts.q) > 0 && c.inflight < c.cfg.MaxInflight && ts.deficit >= ts.q[0].cost {
			w := ts.q[0]
			ts.q = ts.q[1:]
			ts.deficit -= w.cost
			c.queued--
			c.inflight++
			c.admitted++
			ts.admitted++
			w.granted = true
			close(w.ch)
		}
		if c.inflight >= c.cfg.MaxInflight {
			return
		}
		if len(ts.q) == 0 {
			ts.active = false
			ts.deficit = 0
			ts.topped = false
			c.ring = c.ring[1:]
		} else {
			// Deficit exhausted: rotate to the tail for the next round.
			ts.topped = false
			c.ring = append(c.ring[1:], ts)
		}
	}
}

// removeWaiterLocked splices an expired waiter out of its tenant queue.
func (c *Controller) removeWaiterLocked(w *waiter) {
	q := w.tenant.q
	for i, x := range q {
		if x == w {
			w.tenant.q = append(q[:i], q[i+1:]...)
			c.queued--
			return
		}
	}
}

// ResetModule drops the breaker and service-time state for module — called
// when a module is unregistered or replaced so a redeployed function starts
// with a clean circuit. Bumping the estimator generation invalidates
// in-flight tickets: a request admitted against the old deployment that
// completes after the reset must not feed its (old-code) latency into the
// fresh estimator.
func (c *Controller) ResetModule(module string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.breakers, module)
	delete(c.est, module)
	c.estGen[module]++
}

// Estimate returns the controller's live EWMA service-time estimate for
// module, or 0 when it has no samples. Unlike the admit path it never
// materializes estimator state for unknown names, so a pipeline executor
// can poll per-stage estimates for its remaining-budget shed decision
// without growing the estimator map.
func (c *Controller) Estimate(module string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.est[module]; ok && e.n > 0 {
		return time.Duration(e.val)
	}
	return 0
}

// ResetEstimate drops only the service-time estimate for module, keeping
// the breaker — the tier-promotion path. A promoted module runs semantically
// identical (recompiled) code, so its trap history still applies, but its
// service time just changed discontinuously: shedding the next requests on
// the stale cheap-tier estimate would deny the module the traffic that made
// it hot in the first place. Like ResetModule, it invalidates in-flight
// tickets' estimator feedback.
func (c *Controller) ResetEstimate(module string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.est, module)
	c.estGen[module]++
}

// StartDrain stops admitting new requests (503 + Retry-After). Requests
// already queued are still granted and in-flight ones run to completion.
func (c *Controller) StartDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether StartDrain was called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// WaitIdle blocks until no requests are queued or in flight, or until
// timeout. It reports whether the controller went idle.
func (c *Controller) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		idle := c.inflight == 0 && c.queued == 0
		c.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// TenantSnapshot is one tenant's admission accounting.
type TenantSnapshot struct {
	Weight   int    `json:"weight"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Queued   int    `json:"queued"`
}

// Snapshot is the controller's view, exposed via /__stats and read by the
// node's compact health view: the Load and estimates the controller sheds
// against, breaker states, and the cumulative accounting.
type Snapshot struct {
	Draining bool `json:"draining"`
	// Load is the controller's queueing state (the keys flatten).
	Load
	// DefaultEstimateNanos is the service estimate the controller charges
	// a module with no samples and no seed.
	DefaultEstimateNanos int64                     `json:"default_est_ns"`
	Admitted             uint64                    `json:"admitted"`
	GrantWaits           uint64                    `json:"grant_waits"`
	ShedRate             uint64                    `json:"shed_rate_429"`
	ShedQueue            uint64                    `json:"shed_queue_503"`
	ShedDeadline         uint64                    `json:"shed_deadline_503"`
	ShedBreaker          uint64                    `json:"shed_breaker_503"`
	ShedDraining         uint64                    `json:"shed_draining_503"`
	Tenants              map[string]TenantSnapshot `json:"tenants"`
	Breakers             map[string]string         `json:"breakers"`
	EstimateNanos        map[string]int64          `json:"estimate_nanos"`
}

// Shed totals all rejection counters.
func (s Snapshot) Shed() uint64 {
	return s.ShedRate + s.ShedQueue + s.ShedDeadline + s.ShedBreaker + s.ShedDraining
}

// Stats returns a consistent snapshot.
func (c *Controller) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Draining:             c.draining,
		Load:                 c.loadLocked(),
		DefaultEstimateNanos: int64(c.cfg.DefaultEstimate),
		Admitted:             c.admitted,
		GrantWaits:           c.grantWaits,
		ShedRate:             c.shedRate,
		ShedQueue:            c.shedQueue,
		ShedDeadline:         c.shedDead,
		ShedBreaker:          c.shedBreak,
		ShedDraining:         c.shedDrain,
		Tenants:              make(map[string]TenantSnapshot, len(c.tenants)),
		Breakers:             make(map[string]string, len(c.breakers)),
		EstimateNanos:        make(map[string]int64, len(c.est)),
	}
	for name, ts := range c.tenants {
		snap.Tenants[name] = TenantSnapshot{
			Weight:   ts.weight,
			Admitted: ts.admitted,
			Shed:     ts.shed,
			Queued:   len(ts.q),
		}
	}
	for name, b := range c.breakers {
		snap.Breakers[name] = b.state.String()
	}
	for name, e := range c.est {
		if e.n > 0 {
			snap.EstimateNanos[name] = int64(e.val)
		}
	}
	return snap
}
