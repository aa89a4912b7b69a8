package dsms

import "math"

// Exact floating-point summation (Shewchuk's non-overlapping expansion
// algorithm, the one behind Python's math.fsum).
//
// Why the DSMS needs it: a cross-shard aggregate is merged from
// per-shard partial sums, and naive float64 addition is
// order-dependent — the same member values summed in a different
// grouping can round differently, so a routed aggregate would drift a
// few ULPs from the single-server answer. An expansion sum is a
// function of the value *multiset* only: every grouping produces the
// bit-identical, correctly rounded result. Shards therefore ship their
// partials as expansions and the router folds and rounds them through
// the same AggFold (aggregate.go) the single-server Evaluate uses, which
// is what makes "routed == direct" an exact equality rather than a
// tolerance.

// addToExpansion folds x into the non-overlapping partial expansion,
// returning the updated slice (which reuses partials' backing array).
// The invariant: the exact real-number sum of the returned components
// equals the exact sum of the old components plus x.
func addToExpansion(partials []float64, x float64) []float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		// A non-finite value poisons the exact sum; collapse to the
		// IEEE result, which is order-independent for any one special
		// value and deterministic (NaN) when they conflict.
		total := x
		for _, v := range partials {
			total += v
		}
		return append(partials[:0], total)
	}
	i := 0
	for j := 0; j < len(partials); j++ {
		y := partials[j]
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) {
			// Intermediate overflow (or an already-collapsed special
			// component): same collapse as above, over the components
			// not yet folded into hi.
			total := hi
			for _, v := range partials[j+1:] {
				total += v
			}
			for _, v := range partials[:i] {
				total += v
			}
			return append(partials[:0], total)
		}
		lo := y - (hi - x)
		if lo != 0 {
			partials[i] = lo
			i++
		}
		x = hi
	}
	return append(partials[:i], x)
}

// roundExpansion rounds a non-overlapping expansion to the nearest
// float64 — the correctly rounded value of the exact sum the expansion
// represents. An empty expansion is 0.
func roundExpansion(partials []float64) float64 {
	n := len(partials)
	if n == 0 {
		return 0
	}
	hi := partials[n-1]
	n--
	if math.IsNaN(hi) || math.IsInf(hi, 0) {
		return hi
	}
	// Sum from the largest component down until a residual survives;
	// that residual decides the final rounding.
	var lo float64
	for n > 0 {
		x := hi
		y := partials[n-1]
		n--
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// Half-way correction: if the residual and the next-lower component
	// push the same way, the exact sum sits past the round-to-even
	// midpoint and hi must move one ULP toward them.
	if n > 0 && ((lo < 0 && partials[n-1] < 0) || (lo > 0 && partials[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
