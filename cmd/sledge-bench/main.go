// Command sledge-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	sledge-bench                 # run every experiment, full size
//	sledge-bench -run fig6       # one experiment
//	sledge-bench -quick          # reduced sizes/iterations
//	sledge-bench -run sched -snapshot BENCH_sched.json  # JSON snapshot of one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sledge/internal/experiments"
	"sledge/internal/nuclio"
)

func main() {
	// The serverless experiments spawn this binary as the baseline's
	// function worker.
	if nuclio.MaybeWorkerMain() {
		return
	}
	var (
		run      = flag.String("run", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or all")
		quick    = flag.Bool("quick", false, "reduced problem sizes and iteration counts")
		workers  = flag.Int("workers", 0, "override Sledge worker count (0 = GOMAXPROCS)")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		snapshot = flag.String("snapshot", "", "write a JSON result snapshot (experiments that support it; needs one -run id)")
	)
	flag.Parse()
	if *snapshot != "" && *run == "all" {
		// Every snapshotting experiment would overwrite the same file.
		fmt.Fprintln(os.Stderr, "-snapshot needs a single -run experiment id, not all")
		os.Exit(2)
	}

	opts := experiments.Options{Quick: *quick, Workers: *workers, SnapshotPath: *snapshot}
	if !*quiet {
		opts.Log = os.Stderr
	}

	ids := experiments.IDs()
	if *run != "all" {
		if _, ok := experiments.Registry[*run]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", *run, strings.Join(ids, ", "))
			os.Exit(2)
		}
		ids = []string{*run}
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if id == "table1" && seen["fig5"] {
			continue // rendered together with fig5
		}
		tables, err := experiments.Registry[id](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			tbl.Render(os.Stdout)
		}
		seen[id] = true
	}
}
