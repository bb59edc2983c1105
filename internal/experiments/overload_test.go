package experiments

import (
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/loadgen"
	"sledge/internal/workloads/apps"
)

// TestOverloadSmoke drives the admission-controlled runtime at twice its
// measured capacity and checks that the requests it chose to admit almost
// all succeed: overload must surface as controlled shedding (429/503), not
// as errors or collapsed goodput.
func TestOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overload smoke skipped in -short mode")
	}
	spin, _ := apps.Get("spin")
	rt, url, err := serveNode(core.Config{Workers: 2, Admission: &admission.Config{
		DefaultDeadline: 300 * time.Millisecond,
		MaxQueue:        16,
	}}, spin)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	body := apps.SpinRequest(50_000)
	capRes, err := loadgen.Run(loadgen.Options{
		URL: url + "/spin", Concurrency: 4, Requests: 200, Body: body,
	})
	if err != nil {
		t.Fatalf("capacity: %v", err)
	}
	capacity := capRes.ThroughputRPS
	if capacity <= 0 {
		t.Fatalf("no capacity measured: %+v", capRes.Summary)
	}

	res, err := loadgen.Run(loadgen.Options{
		URL:      url + "/spin",
		Body:     body,
		Rate:     2 * capacity,
		Duration: 600 * time.Millisecond,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("overload run: %v", err)
	}
	admitted := res.Issued - res.Rejected - res.Dropped
	if admitted <= 0 {
		t.Fatalf("nothing admitted: issued=%d rejected=%d dropped=%d",
			res.Issued, res.Rejected, res.Dropped)
	}
	errRate := float64(res.Errors) / float64(admitted)
	t.Logf("capacity=%.0f rps, offered=%.0f rps, goodput=%.0f rps, admitted=%d, shed=%d, errors=%d (rate %.3f%%), p99=%v",
		capacity, res.OfferedRPS, res.GoodputRPS, admitted, res.Rejected, res.Errors, 100*errRate, res.Summary.P99)
	if errRate >= 0.01 {
		t.Errorf("admitted error rate %.2f%% >= 1%%", 100*errRate)
	}
	// Goodput must not collapse under 2x offered load.
	if res.GoodputRPS < 0.5*capacity {
		t.Errorf("goodput %.0f rps collapsed below half of capacity %.0f rps",
			res.GoodputRPS, capacity)
	}
}
