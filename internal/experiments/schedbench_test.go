package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSchedBenchSmoke exercises the full bench-sched path at quick sizes:
// every (workers × distribution) cell must complete its closed loop and
// the snapshot JSON must round-trip with full sweep coverage. The
// acceptance numbers (work-stealing beating global-deque at workers >= 4)
// live in BENCH_sched.json, produced by `make bench-sched`; quick sizes
// only cover the 1- and 2-worker cells.
func TestSchedBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sched bench smoke skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	tables, err := RunSchedBench(Options{Quick: true, SnapshotPath: path})
	if err != nil {
		t.Fatalf("sched bench: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("no results: %+v", tables)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var snap schedSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	assertHeader(t, snap.snapHeader)
	if len(snap.Sweep) == 0 {
		t.Fatal("snapshot has no worker entries")
	}
	for _, we := range snap.Sweep {
		if len(we.Modes) != len(schedBenchDists) {
			t.Fatalf("workers=%d covered %d of %d distribution modes", we.Workers, len(we.Modes), len(schedBenchDists))
		}
		for _, m := range we.Modes {
			if m.Requests == 0 || m.ThroughputRPS <= 0 {
				t.Errorf("workers=%d %s: empty cell %+v", we.Workers, m.Mode, m)
			}
			if m.FirstRunP99NS <= 0 {
				t.Errorf("workers=%d %s: no first-quantum latency recorded", we.Workers, m.Mode)
			}
		}
	}
}
