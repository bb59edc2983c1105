package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sledge/internal/cluster"
)

// TestContinuumSmoke runs the edge–cloud continuum experiment end-to-end at
// quick sizes: the 3-node in-process cluster comes up, the offload path is
// actually exercised (offloads > 0 under overload), and federated routing
// beats the isolated spray at 2x aggregate load. The acceptance-grade
// >= 1.3x goodput bar comes from `make bench-cluster` at full sizes; the
// smoke asserts the qualitative ordering so CI stays robust on small hosts.
func TestContinuumSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("continuum smoke skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench_cluster.json")
	tables, err := RunContinuum(Options{Quick: true, SnapshotPath: path})
	if err != nil {
		t.Fatalf("continuum: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("continuum produced %d tables", len(tables))
	}
	var buf bytes.Buffer
	tables[0].Render(&buf)
	t.Logf("\n%s", buf.String())

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var snap struct {
		snapHeader
		AggregateRPS float64 `json:"aggregate_capacity_rps"`
		Nodes        []struct {
			Name        string  `json:"name"`
			CapacityRPS float64 `json:"capacity_rps"`
		} `json:"nodes"`
		Points []struct {
			Multiplier float64 `json:"multiplier"`
			Mode       string  `json:"mode"`
			GoodputRPS float64 `json:"goodput_rps"`
			Errors     int     `json:"errors"`
			Offloads   uint64  `json:"offloads"`
		} `json:"points"`
		FederatedSpeedup map[string]float64 `json:"federated_over_isolated_goodput"`
		Router           cluster.Snapshot   `json:"router"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	assertHeader(t, snap.snapHeader)
	if len(snap.Nodes) != 3 || snap.AggregateRPS <= 0 {
		t.Fatalf("topology = %+v, aggregate = %.0f", snap.Nodes, snap.AggregateRPS)
	}
	if len(snap.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 mults x 2 modes)", len(snap.Points))
	}
	// The load-bearing claim, qualitatively: offload beats shed at 2x.
	ratio, ok := snap.FederatedSpeedup["2x"]
	if !ok {
		t.Fatal("snapshot missing 2x federated/isolated ratio")
	}
	if ratio <= 1 {
		t.Errorf("federated goodput did not beat isolated spray at 2x: %.2fx", ratio)
	}
	if snap.Router.Offloads == 0 {
		t.Error("offload path never exercised (router offloads = 0)")
	}
	for _, pt := range snap.Points {
		if pt.Mode == "federated" && pt.Multiplier >= 2 && pt.Offloads == 0 {
			t.Errorf("federated %gx point recorded no offloads", pt.Multiplier)
		}
	}
}
