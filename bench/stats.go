package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending; an empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without disturbing the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile by linear interpolation between the two
// middle samples, as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so the
// spread -repeat prints is the one the benchmark contract is judged by.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4 // after clamping, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the inter-quartile distance as a share of the median —
// the steadiness figure every end-to-end metric is held to.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// sharePct is part as a percentage of whole; a zero whole reads 0.
func sharePct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// ratio is num/den with a zero denominator reading 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lateHist is an exact histogram of virtual lateness in microseconds:
// one counter per microsecond up to its capacity and a sorted overflow
// beyond.  Virtual time is integral microseconds, so percentiles read
// from it are exact counts, not estimates.
type lateHist struct {
	buckets  []uint32
	overflow []int64
	n        int64
}

func newLateHist(capUS int) *lateHist { return &lateHist{buckets: make([]uint32, capUS)} }

func (h *lateHist) add(us int64) {
	if us < 0 {
		us = 0
	}
	if us < int64(len(h.buckets)) {
		h.buckets[us]++
	} else {
		h.overflow = append(h.overflow, us)
	}
	h.n++
}

// percentileUS returns the nearest-rank p-th percentile in microseconds.
func (h *lateHist) percentileUS(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for us, c := range h.buckets {
		seen += int64(c)
		if seen >= rank {
			return int64(us)
		}
	}
	sort.Slice(h.overflow, func(i, j int) bool { return h.overflow[i] < h.overflow[j] })
	return h.overflow[rank-seen-1]
}
