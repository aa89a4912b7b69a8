// Package kalman implements the discrete Kalman filter family the paper
// builds on: the standard linear filter (Eq. 3–12 of the paper), whose
// covariance, gain and innovation covariance a dense stream copies from
// their settled bit-exact cycle instead of recomputing them (§3.2 case 5,
// cycle.go), the extended Kalman filter for non-linear models (§3.2 cases
// 2–3), the IMM mixture, and innovation-based adaptive noise estimation
// (future work item 6).
//
// The filter deliberately exposes Predict and Correct as separate steps:
// the Dual Kalman Filter protocol advances prediction on every time step
// but applies a correction only when an update is transmitted, so the two
// halves of a predict–correct cycle are driven independently by the
// protocol layer (internal/core).
//
// Layout. A Filter is a small header over one []float64 block holding
// every number it owns — x, P, Q, H, H^T, R, the gain, the innovation, S,
// S^-1 and the scratch its kernel touches (the seg* constants name the
// segments). Where a segment starts depends only on the filter's shape
// (n, m, Joseph or not), so the offsets live in one interned shape value
// all such filters share. New allocates the block; Init builds a filter
// in place over a block its caller provides, which is how a server keeps
// thousands of filters in slabs. A filter declared time-invariant keeps
// Φ(0) in its interned record (cycle.go) and never calls Phi after build;
// any other reads φ_k in place from what the TransitionFunc returns, every
// step. The per-reading path (Predict, Correct, NIS,
// LogLikelihood, PredictedInto) runs as loops over the block: no matrix
// objects, no per-operation dimension or aliasing checks, no allocation.
// The *mat.Matrix-taking methods are wrappers over the slice-taking ones.
//
// Operation order is a contract. The DKF protocol only works because the
// source's mirror and the server's filter compute the same bits, on
// different machines and across versions of this code, so the kernel
// performs exactly the floating-point operations of the mat-API
// recursions it replaced (kept as refFilter in the tests), in their
// order:
//
//   - triple products associate to the left: (φ P) φ^T, (H P) H^T,
//     (P H^T) S^-1, ((I-KH) P) (I-KH)^T, (K R) K^T, (d^T S^-1) d;
//   - each product element accumulates its terms from +0 in index order;
//   - a term whose LEFT factor is zero is skipped, whatever the right
//     factor is (0·NaN and 0·Inf contribute nothing); a zero right factor
//     is multiplied normally;
//   - a 1x1 by 1x1 product does not accumulate: it is the bare product,
//     so it can be −0 where an accumulated one would be +0;
//   - sums keep their operand order: (φPφ^T) + Q, (HPH^T) + R, Kd + x,
//     z − Hx, I − KH as the one subtraction I_ij − (KH)_ij, and
//     symmetrization as (a_ij + a_ji)/2 of the finished product;
//   - S^-1 uses the closed forms for orders 1 and 2 and Gauss-Jordan with
//     partial pivoting above (mat.InverseFlat).
//
// None of this is visible on ordinary data; it decides the bits when a
// value is −0, NaN, infinite or about to overflow, which is why the
// bit-identity tests (TestFilterMatchesReference,
// FuzzFilterMatchesReference, core's TestGoldenSuppressionTrace) feed
// exactly those. An edit that reorders, fuses (scripts/fma.sh) or
// "simplifies" any of the above changes a suppression decision and fails.
//
// The covariance cycle (cycle.go) is held to the same contract. Once a
// dense filter's P repeats bit for bit, it copies in the P, S, S^-1,
// det S and K the full path computed for the same P; everything that
// reads a measurement — φ x, z − Hx, Kd + x — it computes itself, with
// the operations above in their order. So every value a filter leaves in
// its block is the full path's, whichever path ran
// (TestFilterCycleMatchesReference, TestCycleDifferential).
//
// Owed steps (owed.go) extend it. On a record whose Φ(0) is [1] or
// [[1,d],[0,1]] and whose Q is q·I, Coast steps x as above and owes the P
// step — with no φ_k fetched or compared when the record is declared. P
// in the block is an anchor that only Correct, Init, RestoreValues,
// Settle and a full predict move. Whatever reads P reads it settled —
// into a copy unless it is Correct — one owed step by the kernel's (or
// the cycle's) step, so dense streams keep every bit, and j ≥ 2 by the
// closed form in the order owe spells out.
package kalman

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"streamkf/internal/mat"
)

// TransitionFunc returns the state transition matrix φ_k for time step k.
// Models with a time-varying transition (the paper's sinusoidal model,
// Eq. 17) supply a function; time-invariant models wrap a constant.
type TransitionFunc func(k int) *mat.Matrix

// Static wraps a constant transition matrix as a TransitionFunc.
func Static(phi *mat.Matrix) TransitionFunc {
	return func(int) *mat.Matrix { return phi }
}

// Config assembles everything needed to construct a Filter.
type Config struct {
	// Phi produces the n x n state transition matrix for step k.
	Phi TransitionFunc
	// H is the m x n measurement matrix relating state to measurement.
	H *mat.Matrix
	// Q is the n x n process noise covariance.
	Q *mat.Matrix
	// R is the m x m measurement noise covariance.
	R *mat.Matrix
	// X0 is the initial n x 1 state estimate.
	X0 *mat.Matrix
	// P0 is the initial n x n error covariance. If nil, a large diagonal
	// (1e3 * I) is used, expressing low confidence in X0.
	P0 *mat.Matrix
	// JosephForm selects the Joseph stabilized covariance update
	// P = (I-KH) P (I-KH)^T + K R K^T, which preserves symmetry and
	// positive semi-definiteness under roundoff at ~2x the cost of the
	// standard (I-KH) P form. See BenchmarkAblationJosephForm.
	JosephForm bool
	// TimeInvariant declares that Phi(k) is Phi(0) for every k, so a
	// filter on an interned record reads Φ once, at build.
	TimeInvariant bool
}

// Validate checks that the configuration is dimensionally consistent.
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate is Validate returning the values of Phi(0).
func (c Config) validate() ([]float64, error) {
	if c.Phi == nil {
		return nil, errors.New("kalman: Config.Phi is nil")
	}
	if c.H == nil || c.Q == nil || c.R == nil || c.X0 == nil {
		return nil, errors.New("kalman: Config requires H, Q, R and X0")
	}
	if c.X0.Cols() != 1 {
		return nil, fmt.Errorf("kalman: X0 must be a column vector, got %dx%d", c.X0.Rows(), c.X0.Cols())
	}
	return c.validateDims(c.X0.Rows())
}

// validateDims checks Phi(0), Q, H, R and P0 against state dimension n,
// and returns the values of Phi(0).
func (c Config) validateDims(n int) ([]float64, error) {
	phi0 := c.Phi(0)
	if n > math.MaxUint8 || c.H.Rows() > math.MaxUint8 {
		return nil, fmt.Errorf("kalman: %dx%d filter, at most 255 states and measurements", n, c.H.Rows())
	}
	if phi0.Rows() != n || phi0.Cols() != n {
		return nil, fmt.Errorf("kalman: Phi(0) is %dx%d, want %dx%d", phi0.Rows(), phi0.Cols(), n, n)
	}
	if c.Q.Rows() != n || c.Q.Cols() != n {
		return nil, fmt.Errorf("kalman: Q is %dx%d, want %dx%d", c.Q.Rows(), c.Q.Cols(), n, n)
	}
	m := c.H.Rows()
	if c.H.Cols() != n {
		return nil, fmt.Errorf("kalman: H is %dx%d, want %dx%d", c.H.Rows(), c.H.Cols(), m, n)
	}
	if c.R.Rows() != m || c.R.Cols() != m {
		return nil, fmt.Errorf("kalman: R is %dx%d, want %dx%d", c.R.Rows(), c.R.Cols(), m, m)
	}
	if c.P0 != nil && (c.P0.Rows() != n || c.P0.Cols() != n) {
		return nil, fmt.Errorf("kalman: P0 is %dx%d, want %dx%d", c.P0.Rows(), c.P0.Cols(), n, n)
	}
	return phi0.RawData(), nil
}

// Segments of a filter's block, in storage order. x and P lead so the
// mirror-synchrony comparison is one scan; the rest is model constants,
// per-correction outputs and scratch. Q and R stay per filter because
// SetNoise retunes one filter's alone.
const (
	segX     = iota // n: state estimate (a priori after Predict, a posteriori after Correct)
	segP            // n x n: error covariance matching x
	segQ            // n x n: process noise covariance
	segH            // m x n: measurement matrix
	segHT           // n x m: H^T, fixed for the filter's lifetime
	segR            // m x m: measurement noise covariance
	segGain         // n x m: most recent Kalman gain K
	segInnov        // m: most recent innovation z - H x^-
	segS            // m x m: innovation covariance S = H P H^T + R
	segSInv         // m x m: S^-1
	segXs           // n scratch, general kernel only
	segT1           // n x n scratch, general kernel only
	segT2           // n x n scratch, general kernel only
	segT3           // n x n scratch, general kernel only
	segNM           // n x m scratch, general kernel only
	segHP           // m x n scratch, general kernel only
	segD            // m scratch: innovation of a NIS/LogLikelihood probe
	segRow          // m scratch: d^T S^-1
	segW            // m x m Gauss-Jordan scratch, empty for m <= 2 (closed forms)
	segCount
)

// The unrolled shapes' blocks as fixed-size arrays, for n = 1 and n = 2:
// where shapeFor puts H, R, K, the innovation, S and S⁻¹ (x is at 0 and
// P at n), and how long the array is. TestShapeSegments holds them to it.
const (
	u1H, u1R, u1Gain, u1Innov, u1S, u1SInv, u1Len = 3, 5, 6, 7, 8, 9, 10
	u2H, u2R, u2Gain, u2Innov, u2S, u2SInv, u2Len = 10, 14, 15, 17, 18, 19, 20
)

// shape is what every filter of one (n, m, Joseph or not) has in common:
// its covariance update and where each segment of its block starts. One- and
// two-state filters over a scalar measurement in the standard form run
// only the unrolled kernels, which keep their intermediates in registers,
// so their six general-kernel scratch segments are empty. Shapes are
// interned and immutable.
//
// A record is such a shape interned per model constants too (cycle.go):
// the filters that point at it share the bits of Φ(0), Q, H, R and P0,
// and so the covariance cycle found from them and whether their predicts
// may owe their covariance steps (owed.go).
type shape struct {
	off    [segCount + 1]int32 // segment i is buf[off[i]:off[i+1]]
	joseph bool                // use the Joseph stabilized covariance update
	poly   bool                // a record whose Φ(0) is [1] or [[1,d],[0,1]] and Q = q·I
	static bool                // a declared record: phi is φ_k for every k
	line   bool                // a declared poly record with H = e₁: CoastPredicted's straight-line step
	phi    [4]float64          // a record's Φ(0), n x n
	cyc    *cycle              // a record's cycle; nil on a plain shape
}

var (
	shapeMu sync.RWMutex
	shapes  = map[[3]int]*shape{}
)

// shapeFor returns the interned shape of n-state, m-measurement filters.
func shapeFor(n, m int, joseph bool) *shape {
	key := [3]int{n, m, 0}
	if joseph {
		key[2] = 1
	}
	shapeMu.RLock()
	sh := shapes[key]
	shapeMu.RUnlock()
	if sh != nil {
		return sh
	}
	sizes := [segCount]int{
		segX: n, segP: n * n, segQ: n * n, segH: m * n, segHT: n * m, segR: m * m,
		segGain: n * m, segInnov: m, segS: m * m, segSInv: m * m, segD: m, segRow: m,
	}
	if n > 2 || m > 1 || joseph {
		sizes[segXs], sizes[segT1], sizes[segT2], sizes[segT3] = n, n*n, n*n, n*n
		sizes[segNM], sizes[segHP] = n*m, m*n
	}
	if m > 2 {
		sizes[segW] = m * m
	}
	sh = &shape{joseph: joseph}
	total := 0
	for i, sz := range sizes {
		sh.off[i] = int32(total)
		total += sz
	}
	sh.off[segCount] = int32(total)
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if won := shapes[key]; won != nil {
		return won
	}
	shapes[key] = sh
	return sh
}

// BlockLen returns how many float64s the block of an n-state,
// m-measurement filter holds — what Init's caller must provide.
func BlockLen(n, m int, joseph bool) int { return int(shapeFor(n, m, joseph).off[segCount]) }

// Filter is a discrete Kalman filter over the system
//
//	x_{k+1} = φ_k x_k + w_k,   w ~ N(0, Q)
//	z_k     = H x_k + ν_k,     ν ~ N(0, R)
//
// following the paper's Eqs. 3–12.
type Filter struct {
	phi TransitionFunc
	buf []float64 // the block: the shape's segments, then whatever its provider keeps behind them
	sh  *shape    // segment offsets and update form, shared by every filter of this shape
	k   int       // discrete time index: number of Predict steps taken

	// sValid marks S, S^-1 and sDet as current for the present (x, P, R).
	// Correct, NIS and LogLikelihood share the cached triple, so the DKF
	// source path (NIS gate followed by Correct on the same prediction)
	// builds and inverts S once instead of twice.
	sDet      float64
	sValid    bool
	hasGain   bool  // gain and innov hold a correction's values
	corrected bool  // whether Correct has run since the last Predict
	cy        uint8 // the cy* bits: where the filter stands on its record's covariance cycle
	// The state and measurement dimensions, in the header's padding rather
	// than the shape: Coast and PredictedInto, a suppressed reading's step
	// off a line record, pick their kernel and cut x | P | Q and H — whose
	// places follow from n and m alone — without a load through sh.
	n, m uint8
	lag  uint16 // the covariance steps Coast owes (owed.go)
}

func (f *Filter) seg(i int) []float64 { return f.sh.seg(f.buf, i) }

// seg is segment i of a block of this shape; the kernels load the shape
// once and cut every segment they need through it.
func (sh *shape) seg(buf []float64, i int) []float64 { return buf[sh.off[i]:sh.off[i+1]] }

// New constructs a Filter from cfg, validating dimensions.
func New(cfg Config) (*Filter, error) {
	phi0, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	f := new(Filter)
	f.build(cfg, make([]float64, BlockLen(cfg.X0.Rows(), cfg.H.Rows(), cfg.JosephForm)))
	f.intern(phi0, cfg.TimeInvariant)
	return f, nil
}

// Init is New in place: it (re)builds f over block, which the caller
// provides — at least BlockLen floats for cfg's shape, whatever they hold —
// and keeps valid for as long as f is used. Nothing is allocated. With
// cfg.X0 nil the initial state is the n values already at the head of
// block. Floats past BlockLen are the caller's own (Spare).
func (f *Filter) Init(block []float64, cfg Config) error {
	if cfg.Phi == nil || cfg.H == nil || cfg.Q == nil || cfg.R == nil {
		return errors.New("kalman: Config requires Phi, H, Q and R")
	}
	n, m := cfg.H.Cols(), cfg.H.Rows()
	if cfg.X0 != nil && (cfg.X0.Rows() != n || cfg.X0.Cols() != 1) {
		return fmt.Errorf("kalman: X0 is %dx%d, want %dx1", cfg.X0.Rows(), cfg.X0.Cols(), n)
	}
	phi0, err := cfg.validateDims(n)
	if err != nil {
		return err
	}
	if need := BlockLen(n, m, cfg.JosephForm); len(block) < need {
		return fmt.Errorf("kalman: block holds %d values, a %dx%d filter needs %d", len(block), n, m, need)
	}
	*f = Filter{}
	f.build(cfg, block)
	f.intern(phi0, cfg.TimeInvariant)
	return nil
}

// build fills a zero Filter and its block from a validated cfg, on the
// plain shape.
func (f *Filter) build(cfg Config, block []float64) {
	n, m := cfg.H.Cols(), cfg.H.Rows()
	f.phi, f.buf, f.sh = cfg.Phi, block, shapeFor(n, m, cfg.JosephForm)
	f.n, f.m = uint8(n), uint8(m)
	if cfg.X0 != nil {
		copy(f.seg(segX), cfg.X0.RawData())
	}
	clear(block[n:f.sh.off[segCount]])
	copy(f.seg(segQ), cfg.Q.RawData())
	copy(f.seg(segH), cfg.H.RawData())
	mat.TransposeFlat(f.seg(segHT), f.seg(segH), m, n)
	copy(f.seg(segR), cfg.R.RawData())
	if cfg.P0 != nil {
		copy(f.seg(segP), cfg.P0.RawData())
	} else {
		p := f.seg(segP)
		for i := 0; i < n; i++ {
			p[i*n+i] = 1e3
		}
	}
}

// Block returns the whole block the filter was built over, and Spare the
// part of it behind the filter's own segments: storage an Init caller
// sized the block to keep beside the filter.
func (f *Filter) Block() []float64 { return f.buf }
func (f *Filter) Spare() []float64 { return f.buf[f.sh.off[segCount]:] }

// MustNew is New but panics on configuration error. For tests and
// statically known-correct model constructions.
func MustNew(cfg Config) *Filter {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// StateDim returns n, the number of state variables.
func (f *Filter) StateDim() int { return int(f.n) }

// MeasDim returns m, the number of measurement variables.
func (f *Filter) MeasDim() int { return int(f.m) }

// K returns the current discrete time index (number of Predict calls).
func (f *Filter) K() int { return f.k }

// State returns a copy of the current state estimate vector.
func (f *Filter) State() *mat.Matrix { return mat.FromSlice(int(f.n), 1, f.seg(segX)) }

// Cov returns a copy of the current error covariance, owed steps settled.
func (f *Filter) Cov() *mat.Matrix {
	c := mat.FromSlice(int(f.n), int(f.n), f.seg(segP))
	if f.lag > 0 {
		f.owe(c.RawData(), int(f.lag))
	}
	return c
}

// Gain returns a copy of the most recent Kalman gain, or nil before the
// first correction.
func (f *Filter) Gain() *mat.Matrix {
	if !f.hasGain {
		return nil
	}
	return mat.FromSlice(int(f.n), int(f.m), f.seg(segGain))
}

// Innovation returns a copy of the most recent innovation z - Hx^-, or nil
// before the first correction. The paper uses the innovation sequence for
// outlier detection and adaptive sampling (advantage 5, §3.1).
func (f *Filter) Innovation() *mat.Matrix {
	if !f.hasGain {
		return nil
	}
	return mat.FromSlice(int(f.m), 1, f.seg(segInnov))
}

// LastInnovation returns the most recent innovation as a view into the
// filter's block — valid until the next Correct, not to be written — or
// nil before the first correction. Innovation without the copy.
func (f *Filter) LastInnovation() []float64 {
	if !f.hasGain {
		return nil
	}
	return f.seg(segInnov)
}

// One- and two-state filters over a scalar measurement — every model of
// the paper's experiments — run the recursions unrolled, on the three
// element kernels below; every other shape runs them as loops over
// mat's flat kernels. Both reproduce, operation for operation, what
// mat.MulInto, AddInto, SubInto, IdentityMinusInto, SymmetrizeInto and
// InverseInto compute (see the package comment for the contract).

// mul1 is a 1x1 by 1x1 product, which does not accumulate: a zero left
// factor yields +0 (so 0·NaN is 0), anything else the bare product (so a
// −0 product stays −0, where 0 + −0 would be +0). The conversion keeps
// the product from fusing with a following addition.
func mul1(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return float64(a * b)
}

// dot1 and dot2 are one element of any other product with inner
// dimension 1 or 2: terms accumulate left to right from +0, a term whose
// left factor is zero is skipped, and each product is converted as in mul1.
func dot1(a, b float64) float64 {
	var s float64
	if a != 0 {
		s += float64(a * b)
	}
	return s
}

func dot2(a0, b0, a1, b1 float64) float64 {
	var s float64
	if a0 != 0 {
		s += float64(a0 * b0)
	}
	if a1 != 0 {
		s += float64(a1 * b1)
	}
	return s
}

// Predict propagates the state one step forward:
//
//	x^- = φ_k x,   P^- = φ_k P φ_k^T + Q.
//
// After Predict, State/PredictedMeasurement report the a priori estimate.
func (f *Filter) Predict() { f.PredictN(1) }

// PredictN runs steps consecutive Predicts, locating the block's segments
// once. It settles first whatever Coast left owed.
func (f *Filter) PredictN(steps int) {
	if steps <= 0 {
		return
	}
	f.Settle()
	buf, n := f.buf, int(f.n)
	x, p, q := buf[:n], buf[n:n+n*n], buf[n+n*n:n+2*n*n]
	for ; steps > 0; steps-- {
		phi := f.transition(f.k)
		// Off the covariance cycle a predict pays this one test and writes
		// nothing. On it, a single step straight after a Correct takes it,
		// and any other predict leaves it.
		if cy := f.cy; cy != 0 {
			if steps == 1 && cy&cyFast == 0 && f.predictCycle(phi) {
				return
			}
			f.cy = 0
		}
		if n <= 2 {
			stepX(x, nil, phi)
			predictP(p, q, phi)
		} else {
			t1, t2, t3 := f.seg(segT1), f.seg(segT2), f.seg(segT3)
			stepX(x, f.seg(segXs), phi)
			mat.MulFlat(t1, phi, p, n, n, n)
			mat.TransposeFlat(t2, phi, n, n)
			mat.MulFlat(t3, t1, t2, n, n, n)
			for i, qv := range q {
				t3[i] += qv
			}
			mat.SymmetrizeFlat(p, t3, n)
		}
		f.k++
	}
	f.corrected = false
	f.sValid = false
}

// transition returns φ_k's values: a declared record's Φ, with no call
// and no check, or what the TransitionFunc returns, refused unless n x n.
func (f *Filter) transition(k int) []float64 {
	n := int(f.n)
	if sh := f.sh; sh.static {
		return sh.phi[:n*n]
	}
	phi := f.phi(k).RawData()
	if len(phi) != n*n {
		panic(fmt.Sprintf("kalman: Phi(%d) has %d elements, want %dx%d", k, len(phi), n, n))
	}
	return phi
}

// stepX is x ← φ x, in place, with xs as scratch for n > 2.
func stepX(x, xs, phi []float64) {
	switch n := len(x); n {
	case 1:
		x[0] = mul1(phi[0], x[0])
	case 2:
		x[0], x[1] = dot2(phi[0], x[0], phi[1], x[1]), dot2(phi[2], x[0], phi[3], x[1])
	default:
		mat.MulFlat(xs, phi, x, n, n, 1)
		copy(x, xs)
	}
}

// predictP is the unrolled kernels' covariance step, P ← φ P φ^T + Q for
// n = 1 or 2: φ P, then (φ P) φ^T + Q, then the symmetrized result.
func predictP(p, q, phi []float64) {
	if len(p) == 1 {
		p[0] = mul1(mul1(phi[0], p[0]), phi[0]) + q[0]
		return
	}
	f00, f01, f10, f11 := phi[0], phi[1], phi[2], phi[3]
	a00, a01 := dot2(f00, p[0], f01, p[2]), dot2(f00, p[1], f01, p[3])
	a10, a11 := dot2(f10, p[0], f11, p[2]), dot2(f10, p[1], f11, p[3])
	b01 := dot2(a00, f10, a01, f11) + q[1]
	b10 := dot2(a10, f00, a11, f01) + q[2]
	p[0] = dot2(a00, f00, a01, f01) + q[0]
	p[3] = dot2(a10, f10, a11, f11) + q[3]
	p[1] = (b01 + b10) / 2
	p[2] = p[1]
}

// PredictedMeasurement returns H x, the measurement the filter expects
// given the current state estimate. In the DKF protocol this is the value
// the server would answer a query with.
func (f *Filter) PredictedMeasurement() *mat.Matrix {
	z := mat.New(int(f.m), 1)
	f.PredictedInto(z.RawData())
	return z
}

// PredictedInto writes H x into dst (m values) without allocating, and
// returns dst. The protocol layer keeps a reusable destination per node
// to stay off the heap on every reading.
func (f *Filter) PredictedInto(dst []float64) []float64 { return f.hx(dst, f.buf[:f.n]) }

// PredictedAheadInto writes into dst (m values) the H x the filter will
// predict steps Predicts from now, and returns dst. It steps a copy of x
// with PredictN's operations and writes nothing of the filter's.
func (f *Filter) PredictedAheadInto(dst []float64, steps int) []float64 {
	n := int(f.n)
	x := append(make([]float64, 0, 8), f.buf[:n]...)
	x = append(x, x...) // x, then stepX's scratch
	for k := f.k; k < f.k+steps; k++ {
		stepX(x[:n], x[n:], f.transition(k))
	}
	return f.hx(dst, x[:n])
}

// hx writes H x into dst for a state x of the filter's shape.
func (f *Filter) hx(dst, x []float64) []float64 {
	n, m := int(f.n), int(f.m)
	h := f.buf[n+2*n*n : n+2*n*n+m*n]
	switch {
	case m == 1 && n == 1:
		dst[0] = mul1(h[0], x[0])
	case m == 1 && n == 2:
		dst[0] = dot2(h[0], x[0], h[1], x[1])
	default:
		mat.MulFlat(dst, h, x, m, n, 1)
	}
	return dst
}

// checkValues validates the length of a measurement vector.
func (f *Filter) checkValues(z []float64) error {
	if len(z) != int(f.m) {
		return fmt.Errorf("kalman: measurement is %dx1, want %dx1", len(z), int(f.m))
	}
	return nil
}

// column returns z's values for a Matrix-taking wrapper, or an error
// when z is not m x 1.
func (f *Filter) column(z *mat.Matrix) ([]float64, error) {
	if z.Rows() != int(f.m) || z.Cols() != 1 {
		return nil, fmt.Errorf("kalman: measurement is %dx%d, want %dx1", z.Rows(), z.Cols(), int(f.m))
	}
	return z.RawData(), nil
}

// refreshS (re)computes the innovation covariance S = H P H^T + R, its
// inverse and determinant, unless the cached values are still current.
func (f *Filter) refreshS() error {
	if f.sValid {
		return nil
	}
	sh, buf := f.sh, f.buf
	n, m := int(f.n), int(f.m)
	h, p, s := sh.seg(buf, segH), sh.seg(buf, segP), sh.seg(buf, segS)
	var settled [4]float64 // n <= 2 wherever P steps are owed
	if f.lag > 0 {
		p = settled[:copy(settled[:], p)]
		f.owe(p, int(f.lag))
	}
	switch {
	case m == 1 && n == 1:
		s[0] = mul1(mul1(h[0], p[0]), h[0])
	case m == 1 && n == 2:
		s[0] = dot2(dot2(h[0], p[0], h[1], p[2]), h[0], dot2(h[0], p[1], h[1], p[3]), h[1])
	default:
		hp := sh.seg(buf, segHP)
		mat.MulFlat(hp, h, p, m, n, n)
		mat.MulFlat(s, hp, sh.seg(buf, segHT), m, n, m)
	}
	for i, rv := range sh.seg(buf, segR) {
		s[i] += rv
	}
	if m == 1 {
		_, err := f.invS1(s[0], &s[0], &sh.seg(buf, segSInv)[0])
		return err
	}
	det, err := mat.InverseFlat(sh.seg(buf, segSInv), s, sh.seg(buf, segW), m)
	if err != nil {
		return fmt.Errorf("kalman: innovation covariance not invertible: %w", err)
	}
	f.sDet, f.sValid = det, true
	return nil
}

var errSingularS = fmt.Errorf("kalman: innovation covariance not invertible: %w", mat.ErrSingular)

// invS1 is S⁻¹ for m = 1: the cached one while sValid holds, else that of
// sv, cached in s and sInv with InverseFlat's order-1 closed form, det S =
// S and S⁻¹ = 1/S; a singular S is refused.
func (f *Filter) invS1(sv float64, s, sInv *float64) (float64, error) {
	if f.sValid {
		return *sInv, nil
	}
	if *s = sv; sv == 0 {
		return 0, errSingularS
	}
	inv := 1 / sv
	*sInv, f.sDet, f.sValid = inv, sv, true
	return inv, nil
}

// quadForm returns d^T S^-1 d for an innovation d, using the cached S^-1
// in the left-associated evaluation order (d^T S^-1) d.
func (f *Filter) quadForm(d []float64) float64 {
	if len(d) == 1 {
		// MulFlat's 1x1 product, then dot's sum from +0.
		return 0 + float64(mul1(d[0], f.seg(segSInv)[0])*d[0])
	}
	row := f.seg(segRow)
	mat.MulFlat(row, d, f.seg(segSInv), 1, int(f.m), int(f.m))
	return dot(row, d)
}

// CorrectedNIS returns the NIS of the last correction, its innovation
// under the S^-1 it used: the bits NISValues gives for its measurement
// just before it. Valid after a successful Correct until the next
// predict, NIS or LogLikelihood.
func (f *Filter) CorrectedNIS() float64 { return f.quadForm(f.seg(segInnov)) }

// Correct folds measurement z (m x 1) into the state estimate:
//
//	K = P^- H^T (H P^- H^T + R)^-1
//	x = x^- + K (z - H x^-)
//	P = (I - K H) P^-
//
// Correct returns an error if the innovation covariance is singular, which
// indicates a degenerate model (e.g. zero R with an unobservable state).
func (f *Filter) Correct(z *mat.Matrix) error {
	v, err := f.column(z)
	if err != nil {
		return err
	}
	return f.CorrectValues(v)
}

// CorrectValues is Correct on a bare measurement vector of m values; it
// reads z in place and does not retain it.
func (f *Filter) CorrectValues(z []float64) error {
	if err := f.checkValues(z); err != nil {
		return err
	}
	f.Settle()
	sh, buf := f.sh, f.buf
	n, m := int(f.n), int(f.m)
	// The unrolled shapes run one fixed-size kernel over the block, with S
	// (unless cached), S⁻¹, K, the innovation, x and P in named locals. On
	// the covariance cycle (cyFast) K and P⁺ are the phase's, copied in.
	switch {
	case m == 1 && n == 1 && !sh.joseph:
		b := (*[u1Len]float64)(buf)
		h, p, k := b[u1H], b[1], 0.0
		if f.cy&cyFast != 0 {
			ph := &sh.cyc.phases[f.cy&cyPhase/cyPhase]
			k, p = ph.gain[0], ph.post[0]
		} else {
			sInv, err := f.invS1(mul1(mul1(h, p), h)+b[u1R], &b[u1S], &b[u1SInv])
			if err != nil {
				return err
			}
			k = mul1(mul1(p, h), sInv)
			p = mul1(1-mul1(k, h), p)
		}
		d := z[0] - mul1(h, b[0])
		b[u1Gain], b[u1Innov], b[1] = k, d, p
		b[0] = mul1(k, d) + b[0]
	case m == 1 && n == 2 && !sh.joseph:
		b := (*[u2Len]float64)(buf)
		h0, h1, p0, p1, p2, p3 := b[u2H], b[u2H+1], b[2], b[3], b[4], b[5]
		var k0, k1 float64
		if f.cy&cyFast != 0 {
			ph := &sh.cyc.phases[f.cy&cyPhase/cyPhase]
			k0, k1, p0, p1, p2, p3 = ph.gain[0], ph.gain[1], ph.post[0], ph.post[1], ph.post[2], ph.post[3]
		} else {
			s := dot2(dot2(h0, p0, h1, p2), h0, dot2(h0, p1, h1, p3), h1) + b[u2R]
			sInv, err := f.invS1(s, &b[u2S], &b[u2SInv])
			if err != nil {
				return err
			}
			k0 = dot1(dot2(p0, h0, p1, h1), sInv)
			k1 = dot1(dot2(p2, h0, p3, h1), sInv)
			// I - K H, then (I - K H) P, then the symmetrized result.
			a00, a01 := 1-dot1(k0, h0), 0-dot1(k0, h1)
			a10, a11 := 0-dot1(k1, h0), 1-dot1(k1, h1)
			b01 := dot2(a00, p1, a01, p3)
			b10 := dot2(a10, p0, a11, p2)
			p0, p3 = dot2(a00, p0, a01, p2), dot2(a10, p1, a11, p3)
			p1 = (b01 + b10) / 2
			p2 = p1
		}
		d := z[0] - dot2(h0, b[0], h1, b[1])
		b[u2Gain], b[u2Gain+1], b[u2Innov] = k0, k1, d
		b[0], b[1] = dot1(k0, d)+b[0], dot1(k1, d)+b[1]
		b[2], b[3], b[4], b[5] = p0, p1, p2, p3
	default:
		if err := f.refreshS(); err != nil {
			return err
		}
		x, p, h, sInv := sh.seg(buf, segX), sh.seg(buf, segP), sh.seg(buf, segH), sh.seg(buf, segSInv)
		gain, innov := sh.seg(buf, segGain), sh.seg(buf, segInnov)
		nm, xs, t1, t2 := f.seg(segNM), f.seg(segXs), f.seg(segT1), f.seg(segT2)
		// K = P H^T S^-1.
		mat.MulFlat(nm, p, f.seg(segHT), n, n, m)
		mat.MulFlat(gain, nm, sInv, n, m, m)
		f.PredictedInto(innov)
		for i, zv := range z {
			innov[i] = zv - innov[i]
		}
		// x = x^- + K d.
		mat.MulFlat(xs, gain, innov, n, m, 1)
		for i, v := range xs {
			x[i] = v + x[i]
		}
		// (I - K H) P.
		mat.MulFlat(t1, gain, h, n, m, n)
		mat.IdentityMinusFlat(t1, t1, n)
		mat.MulFlat(t2, t1, p, n, n, n)
		if sh.joseph {
			// (I-KH) P (I-KH)^T + K R K^T.
			t3, kt := f.seg(segT3), f.seg(segHP)
			mat.TransposeFlat(t3, t1, n, n)
			mat.MulFlat(t1, t2, t3, n, n, n)
			mat.MulFlat(nm, gain, f.seg(segR), n, m, m)
			mat.TransposeFlat(kt, gain, n, m)
			mat.MulFlat(t2, nm, kt, n, m, n)
			for i, v := range t1 {
				t2[i] = v + t2[i]
			}
		}
		mat.SymmetrizeFlat(p, t2, n)
	}
	f.sValid, f.hasGain, f.corrected = false, true, true
	if f.cy&cyFast != 0 {
		f.cy ^= cyFast
	} else if c := sh.cyc; c != nil {
		f.cy = f.enterCycle(c)
	}
	return nil
}

// Step runs one full Predict+Correct cycle with measurement z.
func (f *Filter) Step(z *mat.Matrix) error {
	f.Predict()
	return f.Correct(z)
}

// Corrected reports whether the most recent operation was a Correct
// (true) or a Predict (false). Useful for diagnostics.
func (f *Filter) Corrected() bool { return f.corrected }

// NIS returns the normalized innovation squared d^T S^-1 d for measurement
// z evaluated against the current prediction, without modifying the filter.
// Under a correct model NIS is chi-squared distributed with m degrees of
// freedom; large values indicate outliers or model mismatch.
//
// NIS shares the cached innovation covariance with Correct: the DKF
// outlier gate's NIS-then-Correct sequence inverts S once.
func (f *Filter) NIS(z *mat.Matrix) (float64, error) {
	v, err := f.column(z)
	if err != nil {
		return 0, err
	}
	return f.NISValues(v)
}

// NISValues is NIS on a bare measurement vector of m values.
func (f *Filter) NISValues(z []float64) (float64, error) {
	if err := f.checkValues(z); err != nil {
		return 0, err
	}
	if err := f.refreshS(); err != nil {
		return 0, err
	}
	d := f.seg(segD) // d = z - H x
	f.PredictedInto(d)
	for i, zv := range z {
		d[i] = zv - d[i]
	}
	return f.quadForm(d), nil
}

// LogLikelihood returns the Gaussian log-likelihood of measurement z
// under the filter's current predictive distribution,
//
//	-½ (m·ln 2π + ln det S + d^T S⁻¹ d),   d = z − H x,  S = H P H^T + R,
//
// without modifying the filter. Summed over a window it scores how well
// a model explains the stream — the Bayesian counterpart of the
// prediction-error scoring used for online model selection.
func (f *Filter) LogLikelihood(z *mat.Matrix) (float64, error) {
	quad, err := f.NIS(z)
	if err != nil {
		return 0, err
	}
	if f.sDet <= 0 {
		return 0, fmt.Errorf("kalman: innovation covariance not positive definite (det %v)", f.sDet)
	}
	return -0.5 * (float64(float64(int(f.m))*math.Log(2*math.Pi)) + math.Log(f.sDet) + quad), nil
}

// Clone returns a deep copy of the filter sharing only the (stateless)
// transition function. The DKF protocol clones the server filter to build
// the byte-identical mirror filter at the source. The clone owns its own
// block, so the pair share no mutable storage whatsoever.
func (f *Filter) Clone() *Filter {
	c := *f
	c.buf = append([]float64(nil), f.buf[:f.sh.off[segCount]]...)
	return &c
}

// StateEqual reports whether two filters hold exactly the same state
// estimate, covariance and time index — the mirror-synchrony invariant of
// the DKF protocol; the covariance is the anchor and its owed steps.
func StateEqual(a, b *Filter) bool {
	if a.k != b.k || a.n != b.n || a.lag != b.lag {
		return false
	}
	// x and P are the first two segments of either block.
	bxp := b.buf[:b.sh.off[segQ]]
	for i, v := range a.buf[:a.sh.off[segQ]] {
		if v != bxp[i] {
			return false
		}
	}
	return true
}

// setMoments overwrites the state estimate and covariance in place.
func (f *Filter) setMoments(op string, x, p *mat.Matrix) {
	n := int(f.n)
	if x.Rows() != n || x.Cols() != 1 {
		panic(fmt.Sprintf("kalman: %s state is %dx%d, want %dx1", op, x.Rows(), x.Cols(), n))
	}
	if p.Rows() != n || p.Cols() != n {
		panic(fmt.Sprintf("kalman: %s covariance is %dx%d, want %dx%d", op, p.Rows(), p.Cols(), n, n))
	}
	f.RestoreValues(x.RawData(), p.RawData(), f.k)
}

// Reset restores the filter to the given state and covariance and rewinds
// the time index to zero. Used when a model is reinstalled online.
func (f *Filter) Reset(x0, p0 *mat.Matrix) {
	f.setMoments("Reset", x0, p0)
	f.k = 0
}

// RestoreValues overwrites the filter's state estimate, covariance and
// discrete time index — the checkpoint-recovery counterpart of Reset,
// which rewinds k to zero instead — from bare slices: n state values,
// n*n covariances row-major, both read in place, so a restore does not
// allocate. The restored filter produces the exact same Predict/Correct
// trajectory as the original because those operations read only
// (x, P, k) plus the construction-time model matrices; the
// gain/innovation diagnostics reset to their pre-first-correction state
// and are rebuilt by the next Correct. The lengths are the caller's to
// get right.
func (f *Filter) RestoreValues(x, p []float64, k int) {
	copy(f.seg(segX), x)
	copy(f.seg(segP), p)
	f.k = k
	f.sValid, f.hasGain, f.corrected = false, false, false
	f.cy, f.lag = 0, 0
}

// SetNoise replaces the process and/or measurement noise covariances.
// Nil arguments leave the corresponding covariance unchanged. A retuned
// filter leaves its record for the plain shape, and so the covariance
// cycle for the full path: records are interned per construction-time
// constants only, so their set stays bounded however often a filter is
// retuned.
func (f *Filter) SetNoise(q, r *mat.Matrix) {
	if q != nil || r != nil {
		f.Settle() // under the old Q, and while the record can
		if sh := f.sh; sh.cyc != nil || sh.poly || sh.static {
			if sh.static { // the record's Φ(0), not what Phi may return now
				n := int(f.n)
				f.phi = Static(mat.FromSlice(n, n, sh.phi[:n*n]))
			}
			f.sh = shapeFor(int(f.n), int(f.m), sh.joseph)
		}
		f.cy = 0
	}
	if q != nil {
		if q.Rows() != int(f.n) || q.Cols() != int(f.n) {
			panic(fmt.Sprintf("kalman: SetNoise Q is %dx%d, want %dx%d", q.Rows(), q.Cols(), int(f.n), int(f.n)))
		}
		copy(f.seg(segQ), q.RawData())
	}
	if r != nil {
		if r.Rows() != int(f.m) || r.Cols() != int(f.m) {
			panic(fmt.Sprintf("kalman: SetNoise R is %dx%d, want %dx%d", r.Rows(), r.Cols(), int(f.m), int(f.m)))
		}
		copy(f.seg(segR), r.RawData())
		f.sValid = false
	}
}
