package kalman

import (
	"math"
	"sync"

	"streamkf/internal/mat"
)

// The covariance cycle.
//
// For a time-invariant model P, S and K follow a recursion that never
// reads a measurement: a dense step — PredictN(1) straight after a
// Correct — takes P⁺ to the next P⁺ through Φ, Q, H and R alone, and the
// kernel computes it deterministically, bit for bit. From P0 the kernel's
// bits settle after a few dozen dense steps into a cycle of P⁺ values that
// repeats exactly: a 2-cycle for the catalogue's constant and linear
// models, a fixed point for some others (TestCovarianceCycle pins them).
// A 2-cycle is as exact as a fixed point: whatever P⁺ a filter holds, the
// next step is the same function of it. So once a filter's P⁺ equals a
// phase's P⁺ bit for bit, the next dense step's P⁻, S, S⁻¹, det S, K and
// P⁺ are that cycle's next phase, and the filter copies them in instead of
// computing them. It still computes everything that reads a measurement —
// x ← φx, the innovation and x ← Kd + x — with the kernel's own
// operations, so every value it leaves in its block is the full path's.
//
// The cycle is a property of the model constants, not of a stream: all
// filters whose shape the cycle covers and whose Φ(0), Q, H, R and P0
// have the same bits point at one interned record — a shape with the
// cycle beside its offsets — and keep one byte of state in their header
// (Filter.cy). Only the two unrolled kernels are covered (n ≤ 2, m = 1,
// standard form); every other shape keeps the full path.
//
// Where a filter's P⁺ came from does not matter, only its bits: so the
// entry test runs after every full Correct on a record, and a predict off
// the cycle finds the byte zero and writes nothing.

// Filter.cy: where a filter stands on its record's cycle; zero off it,
// and always on a shape with no cycle.
const (
	cyOn    uint8 = 1 << iota // P is phase cyPhase's P⁺ or, with cyFast, its P⁻
	cyFast                    // the last predict took the cycle, so the Correct after it does
	cyPhase                   // the phase: set for phase 1 of a 2-cycle
)

// Bounds of the cycle search: the dense steps run from P0, and the
// longest period recognised. Only periods 1 and 2 are used.
const (
	maxSettle = 1024
	maxPeriod = 8
)

// maxRecords bounds the interned set, which is never pruned: a process
// that builds filters over ever new constants — a parameter sweep — would
// otherwise keep an entry and run a discovery for each. A filter built
// past it keeps its plain shape, and so the full path.
const maxRecords = 256

// recordKey is the bits of n, Φ(0), Q, H, R and P0, in that order, of a
// filter the cycle covers: everything the covariance recursion reads. A
// declared time-invariant Φ sets bit 8 of the first word.
type recordKey [1 + 4 + 4 + 2 + 1 + 4]uint64

// phase is one dense step of a cycle: what its predict leaves in P, S,
// S⁻¹ and det S, and what its correction leaves in K and P.
type phase struct {
	prior        [4]float64 // P⁻, n x n
	s, sInv, det float64
	gain         [2]float64 // K, n x 1
	post         [4]float64 // P⁺, n x n
}

// cycle is the sequence of phases P⁺ repeats under its record's Φ; after
// phase j comes phase (j+1) mod period.
type cycle struct {
	period uint8 // 1 or 2
	phases [2]phase
}

// records maps constants to their record or, when they have neither a
// cycle to use, owed steps to take nor a declared Φ, to the plain shape.
var (
	recordMu sync.RWMutex
	records  = map[recordKey]*shape{}
)

// intern points f, just built on its plain shape, at the record of its
// constants when its shape is one the cycle covers and they have a cycle.
// The first filter of new constants discovers it, under recordMu. phi0
// holds Φ(0), which validation has read: nothing here calls Φ. A declared
// filter always gets a record, which keeps phi0 as its Φ for every step.
func (f *Filter) intern(phi0 []float64, declared bool) {
	n := int(f.n)
	if n > 2 || f.m != 1 || f.sh.joseph {
		return
	}
	var key recordKey
	key[0] = uint64(n)
	if declared {
		key[0] |= 1 << 8
	}
	i := 1
	for _, seg := range [...][]float64{phi0, f.seg(segQ), f.seg(segH), f.seg(segR), f.seg(segP)} {
		for _, v := range seg {
			key[i] = math.Float64bits(v)
			i++
		}
	}
	recordMu.RLock()
	rec := records[key]
	recordMu.RUnlock()
	if rec == nil {
		recordMu.Lock()
		defer recordMu.Unlock()
		if rec = records[key]; rec == nil {
			// Owed steps (owed.go) need Φ(0) = [1] or [[1,d],[0,1]], Q = q·I.
			q := f.seg(segQ)
			rec = &shape{off: f.sh.off, static: declared, poly: phi0[0] == 1 && (n == 1 || phi0[2] == 0 && phi0[3] == 1 && q[1] == 0 && q[2] == 0 && q[0] == q[3])}
			rec.line = rec.static && rec.poly && f.seg(segH)[0] == 1 && (n == 1 || f.seg(segH)[1] == 0)
			copy(rec.phi[:], phi0)
			if len(records) >= maxRecords {
				// Past the bound a poly record still owes, as its twin does,
				// and a declared one keeps its Φ.
				if rec.poly || rec.static {
					f.sh = rec
				}
				return
			}
			if rec.cyc = discover(Config{
				Phi: Static(mat.FromSlice(n, n, phi0)), Q: mat.FromSlice(n, n, f.seg(segQ)),
				H: mat.FromSlice(1, n, f.seg(segH)), R: mat.FromSlice(1, 1, f.seg(segR)), P0: mat.FromSlice(n, n, f.seg(segP)),
			}); rec.cyc == nil && !rec.poly && !rec.static {
				rec = f.sh
			}
			records[key] = rec
		}
	}
	f.sh = rec
}

// discover finds the cycle of cfg, which holds a record's constants: the
// kernel, on the plain shape, runs densely from P0, and the cycle P⁺
// settles into is returned if it is one or two steps long and every value
// in it is finite; nil otherwise.
func discover(cfg Config) *cycle {
	f, period, _ := settle(cfg)
	if period == 0 || period > 2 {
		return nil
	}
	c := &cycle{period: uint8(period)}
	zero := []float64{0}
	for j := range period {
		ph := &c.phases[j]
		f.PredictN(1)
		if f.refreshS() != nil {
			return nil
		}
		copy(ph.prior[:], f.seg(segP))
		ph.s, ph.sInv, ph.det = f.seg(segS)[0], f.seg(segSInv)[0], f.sDet
		if f.CorrectValues(zero) != nil {
			return nil
		}
		copy(ph.gain[:], f.seg(segGain))
		copy(ph.post[:], f.seg(segP))
		if !finite(ph.prior[:]) || !finite([]float64{ph.s, ph.sInv, ph.det}) || !finite(ph.gain[:]) || !finite(ph.post[:]) {
			return nil
		}
	}
	return c
}

func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// settle builds cfg's filter on its plain shape — the full path, always —
// and runs it densely, each step PredictN(1) then a correction by zeros,
// until its P⁺ repeats bit for bit the P⁺ of one of the maxPeriod steps
// before, or maxSettle steps pass. It returns the filter as that step left
// it, the shortest such period and the step, counted from 1; period 0
// when P did not settle or S could not be inverted. cfg is valid.
func settle(cfg Config) (f *Filter, period, step int) {
	n, m := cfg.H.Cols(), cfg.H.Rows()
	f = new(Filter)
	f.build(cfg, make([]float64, BlockLen(n, m, cfg.JosephForm)))
	z := make([]float64, m)
	nn := n * n
	hist := make([]float64, maxPeriod*nn) // P⁺ of step t at slot t mod maxPeriod
	for t := 1; t <= maxSettle; t++ {
		f.PredictN(1)
		if f.CorrectValues(z) != nil {
			return f, 0, 0
		}
		p := f.seg(segP)
		for d := 1; d <= maxPeriod && d < t; d++ {
			if bitsEqual(p, hist[(t-d)%maxPeriod*nn:][:nn]) {
				return f, d, t
			}
		}
		copy(hist[t%maxPeriod*nn:], p)
	}
	return f, 0, 0
}

// bitsEqual reports whether b starts with a's bit patterns.
func bitsEqual(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Cycling reports whether the filter's covariance is on its record's
// cycle, so that its next dense step — PredictN(1), then a Correct —
// copies P, S and K in instead of computing them. A diagnostic: the bits
// are the same either way.
func (f *Filter) Cycling() bool { return f.cy&cyOn != 0 }

// enterCycle is the entry test, after a full Correct on a record with
// cycle c: on the phase whose P⁺ the filter's P equals bit for bit, or off
// (0). −0 and +0 differ, and NaN matches nothing: every recorded value is
// finite.
func (f *Filter) enterCycle(c *cycle) uint8 {
	n := int(f.n)
	p := f.buf[n : n+n*n]
	for j := range c.period {
		if bitsEqual(p, c.phases[j].post[:]) {
			return cyOn | j*cyPhase
		}
	}
	return 0
}

// predictCycle is PredictN(1) straight after a Correct that left P on a
// phase — the byte holds cyOn without cyFast — when φ_k is the record's Φ:
// on a declared record always, on any other when it is bit for bit, which
// also catches a TransitionFunc that mutates and returns one matrix: x ←
// φ_k x with the kernel's operations, then takePhase. For any other φ_k it
// reports false and touches nothing.
func (f *Filter) predictCycle(phi []float64) bool {
	if sh := f.sh; !sh.static && !sh.isPhi(phi, int(f.n)) {
		return false
	}
	stepX(f.buf[:f.n], nil, phi)
	f.takePhase()
	f.k++
	f.corrected = false
	return true
}

// takePhase steps P, a phase's P⁺, on: the next phase's P⁻, S, S⁻¹ and
// det S copied in, and the Correct to come marked as the cycle's.
func (f *Filter) takePhase() {
	c, ph := f.sh.cyc, f.cy&cyPhase
	if c.period == 2 {
		ph ^= cyPhase
	}
	next := &c.phases[ph/cyPhase]
	sh, buf, n := f.sh, f.buf, int(f.n)
	copy(buf[n:n+n*n], next.prior[:])
	sh.seg(buf, segS)[0], sh.seg(buf, segSInv)[0] = next.s, next.sInv
	f.sDet, f.sValid = next.det, true
	f.cy = cyOn | cyFast | ph
}
