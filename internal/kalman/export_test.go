package kalman

// CycleOf runs cfg's filter densely from P0 on the full path and returns
// the period its P⁺ settles into and the dense step, counted from 1, at
// which P⁺ first repeats; 0, 0 when it does not within the search bound.
func CycleOf(cfg Config) (period, step int) {
	_, period, step = settle(cfg)
	return period, step
}

// Cached reports whether f points at a record: its shape is one the
// covariance cycle covers, and its constants have a cycle to use.
func Cached(f *Filter) bool { return f.sh.cyc != nil }

// TookCycle reports whether f's last predict took the cycle, so that the
// next Correct does too.
func TookCycle(f *Filter) bool { return f.cy&cyFast != 0 }

// Uncached points f at its plain shape: a filter that never takes the
// cycle, the reference a caching filter is compared with.
func Uncached(f *Filter) {
	f.sh = shapeFor(int(f.n), int(f.m), f.sh.joseph)
	f.cy = 0
}
