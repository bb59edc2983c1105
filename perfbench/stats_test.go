package main

import (
	"math/rand"
	"testing"
)

// TestHistQuantile checks the histogram's quantiles against exact
// nearest-rank quantiles of the same sample, within its bucket width.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var xs []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 50000)
		xs = append(xs, v)
		h.add(v)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		want, got := pct(xs, q), h.q(q)
		if d := got - want; d < 0 && -d > want>>(histSub-1) || d > 0 && d > want>>(histSub-1)+1 {
			t.Errorf("q%.2f = %d, exact %d", q, got, want)
		}
	}
	if newHist().q(0.5) != 0 {
		t.Error("empty histogram quantile is not 0")
	}
}
