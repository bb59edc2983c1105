// Package loadgen is the HTTP load generator used by the serverless
// experiments. It has two modes:
//
//   - Closed loop (the reproduction's Apache Bench): C concurrent
//     connections issue N total POST requests; throughput tracks service
//     rate because each worker waits for its response before sending the
//     next request. This is the mode behind the paper's Figures 6–8.
//   - Open loop (Rate > 0): requests are issued on a fixed schedule
//     regardless of completions, so offered load can exceed capacity —
//     the overload regime the admission-control experiments drive.
//
// Open-loop results separate goodput (200s) from shed responses (429/503,
// the admission controller doing its job) and errors.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/stats"
)

// PipelineURL joins a node base address and a registered pipeline name into
// the chain's invoke URL, e.g. ("http://127.0.0.1:8080", "imgchain") →
// "http://127.0.0.1:8080/p/imgchain".
func PipelineURL(base, name string) string {
	return strings.TrimSuffix(base, "/") + "/p/" + name
}

// Target is one weighted endpoint of a multi-target run.
type Target struct {
	// URL is the endpoint, e.g. "http://127.0.0.1:8080/ping".
	URL string
	// Weight is the endpoint's share of requests relative to the other
	// targets. Non-positive weights count as 1.
	Weight int
}

// Options configures one load run.
type Options struct {
	// URL is the target, e.g. "http://127.0.0.1:8080/ping".
	URL string
	// Targets, when non-empty, selects multi-target mode: request i goes to
	// the endpoint a smooth weighted round-robin schedule assigns it, so
	// load can be aimed at a cluster router (one target) or sprayed across
	// individual nodes (the ablation baseline) with the same generator.
	// URL is ignored when Targets is set.
	Targets []Target
	// TargetFn, when set, picks the endpoint for request i and overrides
	// both URL and Targets. It exists for fleet-scale skew scenarios —
	// Zipf-over-N-modules, where expanding a weighted schedule across
	// thousands of endpoints is impractical — so callers typically index a
	// precomputed rank schedule. It may be called from multiple worker
	// goroutines in closed-loop mode and must be safe for concurrent use;
	// per-endpoint tallies (TargetCounts) are skipped in this mode to keep
	// the per-request cost flat at fleet scale.
	TargetFn func(i int) string
	// sched is the expanded round-robin schedule, built once per Run.
	sched []string
	// Concurrency is the number of concurrent connections (ab -c).
	Concurrency int
	// Requests is the total request count (ab -n). In open-loop mode it
	// bounds issued requests when positive.
	Requests int
	// Body is the request payload; BodyFn overrides it per request.
	Body   []byte
	BodyFn func(i int) []byte
	// Timeout bounds each request. Default 30 s.
	Timeout time.Duration
	// Validate, if set, checks each 200 response body.
	Validate func(body []byte) error
	// Header adds request headers (e.g. the deadline header).
	Header map[string]string

	// Rate, when positive, selects open-loop mode: requests are issued at
	// Rate per second for Duration (or until Requests are issued),
	// regardless of completions.
	Rate float64
	// Duration bounds an open-loop run. Default 5 s.
	Duration time.Duration
	// MaxOutstanding bounds concurrent open-loop requests; issue ticks
	// finding no free slot are dropped (counted, not sent — a full client
	// is itself an overload symptom). Default 4096.
	MaxOutstanding int
}

// Result reports one load run.
type Result struct {
	// Latencies holds per-request latency of successful (200) requests.
	Latencies []time.Duration
	Summary   stats.Summary
	Elapsed   time.Duration
	// Errors counts transport failures, validation failures, and
	// unexpected statuses. Shed responses (429/503) are NOT errors.
	Errors int
	// Rejected counts 429/503 shed responses.
	Rejected int
	// Dropped counts open-loop issue ticks that found the outstanding
	// window full.
	Dropped int
	// Issued counts requests actually sent.
	Issued int
	// StatusCounts tallies responses by HTTP status.
	StatusCounts map[int]int
	// TargetCounts tallies issued requests per endpoint (multi-target mode
	// only; nil otherwise).
	TargetCounts map[string]int
	// ThroughputRPS is completed (200) requests per second of wall time.
	ThroughputRPS float64
	// GoodputRPS aliases ThroughputRPS for the overload experiments.
	GoodputRPS float64
	// OfferedRPS is issued requests per second of wall time.
	OfferedRPS float64
	// BytesIn totals response body bytes.
	BytesIn int64
}

// Run executes the load. It uses a shared keep-alive transport with one
// idle connection per concurrent worker, like ab's connection reuse.
func Run(opts Options) (Result, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Requests <= 0 && opts.Rate <= 0 {
		// Closed loop needs a request count; open loop is duration-bounded
		// and treats Requests <= 0 as unlimited.
		opts.Requests = 1
	}
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.TargetFn != nil {
		// Per-request selection; no schedule to expand.
	} else if len(opts.Targets) > 0 {
		opts.sched = wrrSchedule(opts.Targets)
	} else if opts.URL == "" {
		return Result{}, fmt.Errorf("loadgen: no target URL")
	}
	idle := opts.Concurrency
	if opts.Rate > 0 {
		if opts.MaxOutstanding <= 0 {
			opts.MaxOutstanding = 4096
		}
		if opts.Duration <= 0 {
			opts.Duration = 5 * time.Second
		}
		idle = opts.MaxOutstanding
	}
	transport := &http.Transport{
		MaxIdleConns:        idle,
		MaxIdleConnsPerHost: idle,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	client := &http.Client{Transport: transport, Timeout: opts.Timeout}
	defer transport.CloseIdleConnections()
	if opts.Rate > 0 {
		return runOpenLoop(opts, client)
	}
	return runClosedLoop(opts, client)
}

// collector accumulates per-request outcomes across workers.
type collector struct {
	mu       sync.Mutex
	lats     []time.Duration
	statuses map[int]int
	targets  map[string]int

	errs     atomic.Int64
	rejected atomic.Int64
	bytesIn  atomic.Int64
	firstErr atomic.Pointer[error]
}

func newCollector(capacity int) *collector {
	return &collector{
		lats:     make([]time.Duration, 0, capacity),
		statuses: make(map[int]int),
	}
}

// do issues one request and records its outcome.
func (c *collector) do(client *http.Client, opts *Options, i int) {
	body := opts.Body
	if opts.BodyFn != nil {
		body = opts.BodyFn(i)
	}
	url := opts.URL
	if opts.TargetFn != nil {
		url = opts.TargetFn(i)
	} else if len(opts.sched) > 0 {
		url = opts.sched[i%len(opts.sched)]
		c.mu.Lock()
		if c.targets == nil {
			c.targets = make(map[string]int, len(opts.Targets))
		}
		c.targets[url]++
		c.mu.Unlock()
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		c.fail(fmt.Errorf("request %d: %w", i, err))
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range opts.Header {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		c.fail(fmt.Errorf("request %d: %w", i, err))
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	c.mu.Lock()
	c.statuses[resp.StatusCode]++
	c.mu.Unlock()
	switch {
	case err != nil:
		c.fail(fmt.Errorf("request %d: read: %w", i, err))
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// The admission controller shedding load is an expected overload
		// outcome, accounted separately from errors.
		c.rejected.Add(1)
	case resp.StatusCode != http.StatusOK:
		c.fail(fmt.Errorf("request %d: status %d", i, resp.StatusCode))
	case opts.Validate != nil && opts.Validate(data) != nil:
		c.fail(fmt.Errorf("request %d: %w", i, opts.Validate(data)))
	default:
		c.bytesIn.Add(int64(len(data)))
		c.mu.Lock()
		c.lats = append(c.lats, lat)
		c.mu.Unlock()
	}
}

func (c *collector) fail(err error) {
	c.errs.Add(1)
	c.firstErr.CompareAndSwap(nil, &err)
}

func (c *collector) result(elapsed time.Duration, issued, dropped int) (Result, error) {
	res := Result{
		Latencies:    c.lats,
		Summary:      stats.Summarize(c.lats),
		Elapsed:      elapsed,
		Errors:       int(c.errs.Load()),
		Rejected:     int(c.rejected.Load()),
		Dropped:      dropped,
		Issued:       issued,
		StatusCounts: c.statuses,
		TargetCounts: c.targets,
		BytesIn:      c.bytesIn.Load(),
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(c.lats)) / elapsed.Seconds()
		res.OfferedRPS = float64(issued) / elapsed.Seconds()
	}
	res.GoodputRPS = res.ThroughputRPS
	if ep := c.firstErr.Load(); ep != nil && len(c.lats) == 0 && res.Rejected == 0 {
		return res, *ep
	}
	return res, nil
}

// wrrSchedule expands weighted targets into one smooth-round-robin cycle:
// each target appears Weight times per cycle, interleaved (the classic
// smooth WRR used by nginx) rather than in runs, so even short runs spread
// load in proportion.
func wrrSchedule(targets []Target) []string {
	weight := func(t Target) int {
		if t.Weight <= 0 {
			return 1
		}
		return t.Weight
	}
	total := 0
	for _, t := range targets {
		total += weight(t)
	}
	cur := make([]int, len(targets))
	sched := make([]string, 0, total)
	for len(sched) < total {
		best := -1
		for j, t := range targets {
			cur[j] += weight(t)
			if best < 0 || cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		sched = append(sched, targets[best].URL)
	}
	return sched
}

func runClosedLoop(opts Options, client *http.Client) (Result, error) {
	col := newCollector(opts.Requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				col.do(client, &opts, i)
			}
		}()
	}
	wg.Wait()
	return col.result(time.Since(start), opts.Requests, 0)
}

// runOpenLoop issues requests on a fixed schedule: one every 1/Rate
// seconds, catching up in bursts when the issuing goroutine falls behind
// (standard open-loop semantics — the schedule, not the server, paces
// arrivals).
func runOpenLoop(opts Options, client *http.Client) (Result, error) {
	col := newCollector(opts.MaxOutstanding)
	interval := time.Duration(float64(time.Second) / opts.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, opts.MaxOutstanding)
	var wg sync.WaitGroup
	issued, dropped := 0, 0
	start := time.Now()
	end := start.Add(opts.Duration)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if opts.Requests > 0 && issued+dropped >= opts.Requests {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		issued++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			col.do(client, &opts, i)
		}(i)
	}
	wg.Wait()
	return col.result(time.Since(start), issued, dropped)
}
