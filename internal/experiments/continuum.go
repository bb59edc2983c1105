package experiments

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/cluster"
	"sledge/internal/core"
	"sledge/internal/loadgen"
	"sledge/internal/workloads/apps"
)

// RunContinuum is the edge–cloud continuum experiment: two constrained edge
// nodes plus one elastic cloud node serve the I/O-bound fetch workload, and
// the same locality-skewed open-loop load (most traffic arrives near the
// edges) is offered two ways:
//
//   - isolated: the load generator sprays requests across the three node
//     listeners with the locality weights (45/45/10); a saturated node can
//     only shed. This is the ablation baseline — three independent Sledges.
//   - federated: every request goes to the cluster router, which places it
//     by link latency + modeled queue wait + service estimate and offloads
//     admission rejections to the next-best peer within the deadline.
//
// The workload is fetch (a KV read against a latent store), so each node's
// capacity is its admission window divided by the storage latency — slots
// drain concurrently on the event loop while sandboxes block. Capacity is
// therefore a per-node property that genuinely adds up across colocated
// in-process nodes, which a CPU-bound workload cannot offer (all three
// nodes would share the host's cores and the Go scheduler would reassign
// idle cycles across them, erasing the topology this experiment studies).
//
// The claim under test: at 2x the continuum's aggregate capacity, federated
// offload converts most of the edge sheds into successful (in-deadline)
// completions on the under-utilized cloud, so cluster goodput beats the sum
// of the isolated nodes' goodput by >= 1.3x while admitted p99 stays within
// the deadline.
func RunContinuum(o Options) ([]*Table, error) {
	kvLat := 25 * time.Millisecond
	capacityReqs := 16 // closed-loop requests per admission slot
	pointDur := 2 * time.Second
	deadline := time.Second
	mults := []float64{1, 2, 4}
	edgeSlots, cloudSlots := 4, 16
	if o.Quick {
		// Quick mode shrinks the topology, not just the durations: halved
		// admission windows against a slower store cut the offered rps 4x
		// at the same overload multipliers, so the run stays meaningful on
		// a single race-instrumented core (at full-size load the router's
		// extra HTTP hop saturates the host CPU and the measurement stops
		// being about placement).
		kvLat = 50 * time.Millisecond
		capacityReqs = 8
		pointDur = 600 * time.Millisecond
		deadline = 400 * time.Millisecond
		mults = []float64{1, 2}
		edgeSlots, cloudSlots = 2, 8
	}

	// The continuum: two small edge devices close by, one elastic cloud
	// pool a longer link away. At full size an edge holds 4 concurrent
	// fetches, the cloud 16; with a 25ms store that is ~160 rps per edge
	// and ~640 rps for the cloud.
	type nodeSpec struct {
		name    string
		class   cluster.Class
		workers int // scheduler cores
		slots   int // admission window (concurrent fetches)
		link    time.Duration
		weight  int // locality share of the isolated spray
	}
	specs := []nodeSpec{
		{"edge0", cluster.ClassEdge, 1, edgeSlots, 500 * time.Microsecond, 45},
		{"edge1", cluster.ClassEdge, 1, edgeSlots, 500 * time.Microsecond, 45},
		{"cloud0", cluster.ClassCloud, 2, cloudSlots, 5 * time.Millisecond, 10},
	}

	// One shared object store; every node sees the same simulated access
	// latency to it.
	store := abi.NewMapKV()
	objVal := bytes.Repeat([]byte("x"), 64)
	store.Set("obj", objVal)
	body := []byte("obj")
	validate := func(b []byte) error {
		if !bytes.Equal(b, objVal) {
			return fmt.Errorf("fetch returned %d bytes, want %d", len(b), len(objVal))
		}
		return nil
	}

	router := cluster.New(cluster.Config{DefaultDeadline: deadline})
	defer router.Close()
	var (
		nodes   []*core.Runtime
		urls    []string
		targets []loadgen.Target
	)
	defer func() {
		for _, rt := range nodes {
			rt.Close()
		}
	}()
	for _, sp := range specs {
		rt, url, err := serveNode(core.Config{Workers: sp.workers, Admission: &admission.Config{
			// The capacity hint is the admission window, not the core
			// count: blocked fetches drain concurrently on the event loop.
			Workers:         sp.slots,
			MaxInflight:     sp.slots,
			MaxQueue:        2 * sp.slots,
			DefaultDeadline: deadline,
			DefaultEstimate: kvLat,
		}, KV: &abi.LatentKV{KVStore: store, Delay: kvLat}}, &apps.FetchApp)
		if err != nil {
			return nil, fmt.Errorf("continuum %s: %w", sp.name, err)
		}
		nodes = append(nodes, rt)
		urls = append(urls, url)
		targets = append(targets, loadgen.Target{URL: url + "/fetch", Weight: sp.weight})
		if err := router.Register(cluster.NodeConfig{
			Name: sp.name, Class: sp.class, Link: sp.link, Runtime: rt,
		}); err != nil {
			return nil, fmt.Errorf("continuum register %s: %w", sp.name, err)
		}
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go router.Serve(rln)
	routerURL := "http://" + rln.Addr().String()

	// Closed-loop capacity per node (doubles as warmup: sandbox pools,
	// admission EWMA, connections). Aggregate capacity is what the
	// continuum could serve with perfect placement.
	capacity := make([]float64, len(urls))
	var aggregate float64
	for i, url := range urls {
		res, err := loadgen.Run(loadgen.Options{
			URL: url + "/fetch", Concurrency: 2 * specs[i].slots,
			Requests: capacityReqs * specs[i].slots, Body: body, Validate: validate,
		})
		if err != nil {
			return nil, fmt.Errorf("continuum capacity %s: %w", specs[i].name, err)
		}
		capacity[i] = res.ThroughputRPS
		aggregate += res.ThroughputRPS
		o.logf("continuum: %s capacity = %.0f rps (%d slots, %v store)",
			specs[i].name, capacity[i], specs[i].slots, kvLat)
	}
	o.logf("continuum: aggregate capacity = %.0f rps", aggregate)

	type pointJSON struct {
		Multiplier  float64 `json:"multiplier"`
		Mode        string  `json:"mode"`
		OfferedRPS  float64 `json:"offered_rps"`
		Issued      int     `json:"issued"`
		GoodputRPS  float64 `json:"goodput_rps"`
		AdmittedP50 float64 `json:"admitted_p50_ms"`
		AdmittedP99 float64 `json:"admitted_p99_ms"`
		Rejected    int     `json:"rejected"`
		Errors      int     `json:"errors"`
		Offloads    uint64  `json:"offloads,omitempty"`
		Hedges      uint64  `json:"hedges,omitempty"`
		Sheds       uint64  `json:"cluster_sheds,omitempty"`
	}
	var points []pointJSON
	ratios := map[float64]float64{}

	tbl := &Table{
		ID:      "cluster",
		Title:   "Edge-cloud continuum: isolated spray vs federated offload under overload",
		Headers: []string{"offered", "mode", "goodput rps", "goodput/cap", "p50 adm", "p99 adm", "shed", "offloads", "errors"},
		Notes: []string{
			fmt.Sprintf("2 edge nodes (%d slots, 0.5ms link) + 1 cloud node (%d slots, 5ms link), fetch vs %v store",
				edgeSlots, cloudSlots, kvLat),
			fmt.Sprintf("aggregate closed-loop capacity %.0f rps; deadline %v", aggregate, deadline),
			"isolated = weighted spray 45/45/10 across node listeners (locality skew, no offload)",
			"federated = all load on the cluster router (offload-instead-of-shed)",
		},
	}
	for _, mult := range mults {
		var isolated, federated float64
		for _, mode := range []string{"isolated", "federated"} {
			lopts := loadgen.Options{
				Body:     body,
				Validate: validate,
				Rate:     mult * aggregate,
				Duration: pointDur,
				Timeout:  10 * time.Second,
			}
			if mode == "isolated" {
				lopts.Targets = targets
			} else {
				lopts.URL = routerURL + "/fetch"
			}
			before := router.Stats()
			res, err := loadgen.Run(lopts)
			if err != nil {
				return nil, fmt.Errorf("continuum %gx %s: %w", mult, mode, err)
			}
			after := router.Stats()
			pt := pointJSON{
				Multiplier:  mult,
				Mode:        mode,
				OfferedRPS:  res.OfferedRPS,
				Issued:      res.Issued,
				GoodputRPS:  res.GoodputRPS,
				AdmittedP50: float64(res.Summary.P50) / 1e6,
				AdmittedP99: float64(res.Summary.P99) / 1e6,
				Rejected:    res.Rejected,
				Errors:      res.Errors,
			}
			if mode == "federated" {
				pt.Offloads = after.Offloads - before.Offloads
				pt.Hedges = after.Hedges - before.Hedges
				pt.Sheds = after.Sheds - before.Sheds
				federated = res.GoodputRPS
			} else {
				isolated = res.GoodputRPS
			}
			points = append(points, pt)
			ratio := 0.0
			if aggregate > 0 {
				ratio = res.GoodputRPS / aggregate
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%gx", mult),
				mode,
				fmt.Sprintf("%.0f", pt.GoodputRPS),
				fmt.Sprintf("%.2f", ratio),
				fmt.Sprintf("%.1fms", pt.AdmittedP50),
				fmt.Sprintf("%.1fms", pt.AdmittedP99),
				fmt.Sprintf("%d", pt.Rejected),
				fmt.Sprintf("%d", pt.Offloads),
				fmt.Sprintf("%d", pt.Errors),
			})
			o.logf("continuum: %gx %s goodput=%.0f p99=%.1fms shed=%d offloads=%d",
				mult, mode, pt.GoodputRPS, pt.AdmittedP99, pt.Rejected, pt.Offloads)
		}
		if isolated > 0 {
			ratios[mult] = federated / isolated
			o.logf("continuum: %gx federated/isolated goodput = %.2fx", mult, ratios[mult])
		}
	}

	type nodeJSON struct {
		Name        string  `json:"name"`
		Class       string  `json:"class"`
		Workers     int     `json:"workers"`
		Slots       int     `json:"slots"`
		LinkMS      float64 `json:"link_ms"`
		SprayWeight int     `json:"spray_weight"`
		CapacityRPS float64 `json:"capacity_rps"`
	}
	var nj []nodeJSON
	for i, sp := range specs {
		nj = append(nj, nodeJSON{sp.name, sp.class.String(), sp.workers, sp.slots,
			float64(sp.link) / 1e6, sp.weight, capacity[i]})
	}
	snap := struct {
		snapHeader
		App              string             `json:"app"`
		KVLatencyMS      float64            `json:"kv_latency_ms"`
		DeadlineMS       float64            `json:"deadline_ms"`
		AggregateRPS     float64            `json:"aggregate_capacity_rps"`
		Nodes            []nodeJSON         `json:"nodes"`
		Points           []pointJSON        `json:"points"`
		FederatedSpeedup map[string]float64 `json:"federated_over_isolated_goodput"`
		Router           cluster.Snapshot   `json:"router"`
	}{snapHeader{
		Description: "Edge-cloud continuum: two edge nodes and one cloud node serve the I/O-bound fetch workload under locality-skewed open-loop load, sprayed across isolated node listeners vs placed by the federating cluster router. make bench-cluster",
		Acceptance:  "federated goodput >= 1.3x isolated at 2x aggregate load, with admitted p99 within the deadline",
	}, "fetch", float64(kvLat) / 1e6, float64(deadline) / 1e6, aggregate, nj, points,
		map[string]float64{}, router.Stats()}
	for mult, ratio := range ratios {
		snap.FederatedSpeedup[fmt.Sprintf("%gx", mult)] = ratio
	}
	if err := o.writeSnapshot("cluster", &snap); err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}
