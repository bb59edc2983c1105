package experiments

import (
	"fmt"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/loadgen"
	"sledge/internal/workloads/apps"
)

// RunOverload measures goodput and admitted-request latency under
// open-loop overload, with and without the admission controller. It first
// finds the runtime's closed-loop capacity on the spin workload, then
// offers 1x/2x/4x that rate. The paper's runtime degrades under overload
// (every accepted request queues); the admission controller instead sheds
// the excess at the door so goodput stays near capacity and the latency of
// admitted requests stays bounded by the deadline.
func RunOverload(o Options) ([]*Table, error) {
	workers := o.workers()
	if workers < 2 {
		// On a single-core host the colocated load generator cannot
		// genuinely over-offer a 1-worker runtime; two workers restore
		// queue pressure at the admission layer.
		workers = 2
	}
	spinIters := 200_000
	capacityReqs := 1500
	pointDur := 2 * time.Second
	deadline := time.Second
	if o.Quick {
		spinIters = 50_000
		capacityReqs = 300
		pointDur = 350 * time.Millisecond
		deadline = 300 * time.Millisecond
	}
	body := apps.SpinRequest(uint32(spinIters))
	spin, _ := apps.Get("spin")

	// Two identical runtimes, one with the admission controller in front.
	withRT, withURL, err := serveNode(core.Config{Workers: workers, Admission: &admission.Config{
		DefaultDeadline: deadline,
		// A short admit queue keeps the latency of admitted requests
		// bounded by queue depth x service time instead of by client
		// patience.
		MaxQueue: 8 * workers,
	}}, spin)
	if err != nil {
		return nil, err
	}
	defer withRT.Close()
	withoutRT, withoutURL, err := serveNode(core.Config{Workers: workers}, spin)
	if err != nil {
		return nil, err
	}
	defer withoutRT.Close()

	// Closed-loop capacity on the unprotected runtime; also warms both
	// (sandbox pools, connection setup, and the controller's EWMA seed).
	o.logf("overload: measuring capacity (spin %d iters, %d workers)", spinIters, workers)
	warm := loadgen.Options{URL: withURL + "/spin", Concurrency: workers, Requests: 4 * workers, Body: body}
	if _, err := loadgen.Run(warm); err != nil {
		return nil, fmt.Errorf("overload warmup: %w", err)
	}
	capRes, err := loadgen.Run(loadgen.Options{
		URL: withoutURL + "/spin", Concurrency: 2 * workers, Requests: capacityReqs, Body: body,
	})
	if err != nil {
		return nil, fmt.Errorf("overload capacity: %w", err)
	}
	capacity := capRes.ThroughputRPS
	o.logf("overload: capacity = %.0f rps", capacity)

	type pointJSON struct {
		Multiplier   float64 `json:"multiplier"`
		Admission    bool    `json:"admission"`
		OfferedRPS   float64 `json:"offered_rps"`
		Issued       int     `json:"issued"`
		GoodputRPS   float64 `json:"goodput_rps"`
		AdmittedP50  float64 `json:"admitted_p50_ms"`
		AdmittedP99  float64 `json:"admitted_p99_ms"`
		Rejected     int     `json:"rejected"`
		Errors       int     `json:"errors"`
		Dropped      int     `json:"dropped"`
		GoodputRatio float64 `json:"goodput_over_capacity"`
	}
	var points []pointJSON

	tbl := &Table{
		ID:      "overload",
		Title:   "Open-loop overload: goodput and admitted latency, +/- admission control",
		Headers: []string{"offered", "admission", "goodput rps", "goodput/cap", "p50 adm", "p99 adm", "shed", "errors"},
		Notes: []string{
			fmt.Sprintf("spin workload, %d iters/request, %d workers", spinIters, workers),
			fmt.Sprintf("closed-loop capacity %.0f rps; admission deadline %v", capacity, deadline),
			"shed = 429/503 responses (admission doing its job, not errors)",
		},
	}
	for _, mult := range []float64{1, 2, 4} {
		for _, adm := range []bool{false, true} {
			url := withoutURL
			if adm {
				url = withURL
			}
			res, err := loadgen.Run(loadgen.Options{
				URL:      url + "/spin",
				Body:     body,
				Rate:     mult * capacity,
				Duration: pointDur,
				Timeout:  10 * time.Second,
			})
			if err != nil {
				return nil, fmt.Errorf("overload %gx admission=%v: %w", mult, adm, err)
			}
			pt := pointJSON{
				Multiplier:  mult,
				Admission:   adm,
				OfferedRPS:  res.OfferedRPS,
				Issued:      res.Issued,
				GoodputRPS:  res.GoodputRPS,
				AdmittedP50: float64(res.Summary.P50) / 1e6,
				AdmittedP99: float64(res.Summary.P99) / 1e6,
				Rejected:    res.Rejected,
				Errors:      res.Errors,
				Dropped:     res.Dropped,
			}
			if capacity > 0 {
				pt.GoodputRatio = res.GoodputRPS / capacity
			}
			points = append(points, pt)
			onoff := "off"
			if adm {
				onoff = "on"
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%gx", mult),
				onoff,
				fmt.Sprintf("%.0f", pt.GoodputRPS),
				fmt.Sprintf("%.2f", pt.GoodputRatio),
				fmt.Sprintf("%.1fms", pt.AdmittedP50),
				fmt.Sprintf("%.1fms", pt.AdmittedP99),
				fmt.Sprintf("%d", pt.Rejected),
				fmt.Sprintf("%d", pt.Errors),
			})
			o.logf("overload: %gx admission=%s goodput=%.0f p99=%.1fms shed=%d",
				mult, onoff, pt.GoodputRPS, pt.AdmittedP99, pt.Rejected)
		}
	}

	snap := struct {
		snapHeader
		App         string      `json:"app"`
		SpinIters   int         `json:"spin_iters"`
		Workers     int         `json:"workers"`
		CapacityRPS float64     `json:"capacity_rps"`
		DeadlineMS  float64     `json:"deadline_ms"`
		Points      []pointJSON `json:"points"`
	}{snapHeader{
		Description: "Open-loop overload on the spin workload at 1x/2x/4x closed-loop capacity, with and without the admission controller in front of an otherwise identical runtime. make bench-overload",
		Acceptance:  "admitted error rate < 1% at 2x capacity",
	}, "spin", spinIters, workers, capacity, float64(deadline) / 1e6, points}
	if err := o.writeSnapshot("overload", &snap); err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}
