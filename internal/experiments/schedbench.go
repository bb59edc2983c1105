package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sledge/internal/engine"
	"sledge/internal/sandbox"
	"sledge/internal/sched"
	"sledge/internal/stats"
)

// schedModeEntry is one (worker count, distribution) cell of the scheduler
// scale-out benchmark.
type schedModeEntry struct {
	Mode          string  `json:"mode"`
	Requests      int     `json:"requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	FirstRunP50NS int64   `json:"submit_to_first_quantum_p50_ns"`
	FirstRunP99NS int64   `json:"submit_to_first_quantum_p99_ns"`
	Steals        uint64  `json:"steals"`
	StealBatches  uint64  `json:"steal_batches"`
}

type schedWorkerEntry struct {
	Workers int              `json:"workers"`
	Modes   []schedModeEntry `json:"modes"`
}

// schedSnapshot is the machine-readable BENCH_sched.json payload.
type schedSnapshot struct {
	snapHeader
	Sweep []schedWorkerEntry `json:"sweep"`
}

// schedBenchDists is the distribution sweep: the per-worker topology
// against the paper's original single global deque (with its dispatcher
// hop), the mutex global queue, and static assignment.
var schedBenchDists = []sched.Distribution{
	sched.DistWorkStealing, sched.DistGlobalDeque, sched.DistGlobalLock, sched.DistStatic,
}

// RunSchedBench measures the scheduler's request path across worker counts
// and distribution mechanisms: closed-loop drivers submit tiny functions,
// so per-request scheduling overhead — the submit hop, wakeup latency, and
// queue handoff — dominates the measurement. Reported per cell: throughput
// and the submit→first-quantum latency distribution. With SnapshotPath set
// it writes BENCH_sched.json.
func RunSchedBench(o Options) ([]*Table, error) {
	requests := 4000
	workerCounts := []int{1, 2, 4, 8}
	if o.Quick {
		requests = 300
		workerCounts = []int{1, 2}
	}
	cm, err := compileSpin(engine.Config{})
	if err != nil {
		return nil, err
	}
	var snap schedSnapshot
	snap.Description = "Scheduler scale-out sweep: closed-loop tiny requests per (workers × distribution); throughput and submit→first-quantum latency isolate the per-request dispatch overhead. make bench-sched"
	snap.Acceptance = "at workers >= 4: work-stealing (per-worker deques, direct submit, targeted wakeups) beats global-deque (dispatcher goroutine + channel hop) on throughput and submit->first-quantum p99"
	tbl := &Table{
		ID:      "sched",
		Title:   fmt.Sprintf("Scheduler scale-out: %d closed-loop requests per cell (GOMAXPROCS=%d)", requests, runtime.GOMAXPROCS(0)),
		Headers: []string{"workers", "mechanism", "req/s", "first-quantum p50", "first-quantum p99", "steals"},
		Notes: []string{
			"work-stealing submits straight into the least-loaded worker's inbox and wakes that worker;",
			"global-deque routes every request through the dispatcher goroutine and its channel (the retired design)",
		},
	}
	for _, workers := range workerCounts {
		we := schedWorkerEntry{Workers: workers}
		for _, dist := range schedBenchDists {
			entry, err := runSchedCell(cm, workers, dist, requests)
			if err != nil {
				return nil, err
			}
			we.Modes = append(we.Modes, entry)
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(workers), entry.Mode,
				fmt.Sprintf("%.0f", entry.ThroughputRPS),
				time.Duration(entry.FirstRunP50NS).String(),
				time.Duration(entry.FirstRunP99NS).String(),
				fmt.Sprint(entry.Steals),
			})
			o.logf("sched: workers=%d %s %.0f req/s p99=%v", workers, entry.Mode,
				entry.ThroughputRPS, time.Duration(entry.FirstRunP99NS))
		}
		snap.Sweep = append(snap.Sweep, we)
	}
	if err := o.writeSnapshot("sched", &snap); err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}

// runSchedCell drives one (workers, distribution) configuration: `workers`
// closed-loop driver goroutines, each submitting a tiny request and
// waiting for it, so the pool is busy but never deeply backlogged — the
// regime where dispatch overhead and wakeup latency are visible.
func runSchedCell(cm *engine.CompiledModule, workers int, dist sched.Distribution, requests int) (schedModeEntry, error) {
	pool := sched.NewPool(sched.Config{Workers: workers, Distribution: dist})
	defer pool.Stop()

	perDriver := requests / workers
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < workers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			done := make(chan *sandbox.Sandbox, 1)
			lat := make([]time.Duration, 0, perDriver)
			for i := 0; i < perDriver; i++ {
				sb, err := sandbox.New(cm, make([]byte, 1), sandbox.Options{})
				if err != nil {
					errs[d] = err
					return
				}
				sb.OnComplete = func(s *sandbox.Sandbox) { done <- s }
				submitAt := time.Now()
				if err := pool.Submit(sb); err != nil {
					errs[d] = err
					return
				}
				s := <-done
				lat = append(lat, s.FirstRunAt.Sub(submitAt))
			}
			lats[d] = lat
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return schedModeEntry{}, err
		}
	}
	all := make([]time.Duration, 0, requests)
	for _, l := range lats {
		all = append(all, l...)
	}
	s := stats.Summarize(all)
	st := pool.Stats()
	return schedModeEntry{
		Mode:          dist.String(),
		Requests:      len(all),
		ThroughputRPS: float64(len(all)) / elapsed.Seconds(),
		FirstRunP50NS: int64(s.P50),
		FirstRunP99NS: int64(s.P99),
		Steals:        st.Steals,
		StealBatches:  st.StealBatches,
	}, nil
}
