package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted, interpolating
// linearly between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile of xs, which need not be sorted.
func quantile(xs []float64, p float64) float64 { return percentile(sorted(xs), p) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedPercentile takes the p-quantile of each window's values and
// returns the median of those, so that a spell in which the machine
// itself ran slow (it does, on a shared host) moves a few windows and no
// result; a change in the system moves every window.
func windowedPercentile(windows [][]float64, p float64) float64 {
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, percentile(sorted(w), p))
		}
	}
	return median(qs)
}
