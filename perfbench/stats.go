package main

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// pct returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// method, sorting xs in place. It returns 0 for an empty sample.
func pct(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[max(0, int(math.Ceil(q*float64(len(xs))))-1)]
}

// hist is a log-linear histogram of nanosecond durations: values below
// 2^histSub are exact, and each power of two above is split into 2^histSub
// buckets, so a quantile read from it is within 0.05% of the true sample.
// Its memory stays fixed however many samples a run takes.
type hist struct {
	counts map[int]int64 // bucket index → samples
	n      int64
}

const histSub = 10

func newHist() *hist { return &hist{counts: map[int]int64{}} }

func (h *hist) add(v int64) {
	v = max(v, 0)
	i := int(v)
	if v >= 1<<histSub {
		e := bits.Len64(uint64(v)) - histSub - 1
		i = (e+1)<<histSub + int(v>>e) - 1<<histSub
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// q returns the nearest-rank q-quantile at its bucket's midpoint, or 0
// for an empty histogram.
func (h *hist) q(q float64) int64 {
	rank := max(1, int64(math.Ceil(q*float64(h.n))))
	var seen int64
	for _, i := range sortedKeys(h.counts) {
		if seen += h.counts[i]; seen >= rank {
			if i < 1<<histSub {
				return int64(i)
			}
			e := i>>histSub - 1
			lo := int64(i-e<<histSub) << e
			return lo + (int64(1)<<e)/2
		}
	}
	return 0
}

// medianF is the median of a small float sample (sorted in place).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return share(sum, float64(len(xs)))
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
