package kalman

import (
	"math"
	"testing"

	"streamkf/internal/mat"
)

// refFilter replays the historical allocating implementation of the
// filter recursions, operation for operation (left-associated triple
// products, AddInPlace accumulation order, Symmetrize of the fresh
// product) on the mat API. The flat-array kernel must reproduce its
// trajectories bit for bit — the property the DKF server/mirror synchrony
// invariant rests on.
type refFilter struct {
	phi    TransitionFunc
	h      *mat.Matrix
	q, r   *mat.Matrix
	x, p   *mat.Matrix
	gain   *mat.Matrix
	k      int
	joseph bool
}

// RefFilter and NewRefFilter let the bit-identity tests in package
// kalman_test — which need internal/model, an importer of this package —
// drive the reference.
type RefFilter = refFilter

func NewRefFilter(cfg Config) *RefFilter { return newRefFilter(cfg) }

func (f *refFilter) State() *mat.Matrix { return f.x }
func (f *refFilter) Cov() *mat.Matrix   { return f.p }
func (f *refFilter) Gain() *mat.Matrix  { return f.gain }

func newRefFilter(cfg Config) *refFilter {
	p0 := cfg.P0
	if p0 == nil {
		p0 = mat.ScaledIdentity(cfg.X0.Rows(), 1e3)
	}
	return &refFilter{
		phi: cfg.Phi, h: cfg.H.Clone(), q: cfg.Q.Clone(), r: cfg.R.Clone(),
		x: cfg.X0.Clone(), p: p0.Clone(), joseph: cfg.JosephForm,
	}
}

func (f *refFilter) Predict() {
	phi := f.phi(f.k)
	f.x = mat.Mul(phi, f.x)
	f.p = mat.Symmetrize(mat.AddInPlace(mat.Mul(mat.Mul(phi, f.p), mat.Transpose(phi)), f.q))
	f.k++
}

// innovCov returns the inverse and the determinant of S = H P H^T + R.
func (f *refFilter) innovCov() (sInv *mat.Matrix, det float64) {
	s := mat.AddInPlace(mat.Mul(mat.Mul(f.h, f.p), mat.Transpose(f.h)), f.r)
	sInv = mat.New(s.Rows(), s.Cols())
	det, err := mat.InverseInto(sInv, s, nil)
	if err != nil {
		panic(err)
	}
	return sInv, det
}

func (f *refFilter) Correct(z *mat.Matrix) {
	sInv, _ := f.innovCov()
	k := mat.Mul(mat.Mul(f.p, mat.Transpose(f.h)), sInv)
	innov := mat.Sub(z, mat.Mul(f.h, f.x))
	f.x = mat.AddInPlace(mat.Mul(k, innov), f.x)
	ikh := mat.Sub(mat.Identity(f.x.Rows()), mat.Mul(k, f.h))
	if f.joseph {
		f.p = mat.Symmetrize(mat.Add(
			mat.Mul(mat.Mul(ikh, f.p), mat.Transpose(ikh)),
			mat.Mul(mat.Mul(k, f.r), mat.Transpose(k)),
		))
	} else {
		f.p = mat.Symmetrize(mat.Mul(ikh, f.p))
	}
	f.gain = k
}

func (f *refFilter) NIS(z *mat.Matrix) float64 {
	sInv, _ := f.innovCov()
	d := mat.Sub(z, mat.Mul(f.h, f.x))
	return mat.Mul(mat.Mul(mat.Transpose(d), sInv), d).At(0, 0)
}

// LogLikelihood also returns det S: the filter refuses a non-positive one.
func (f *refFilter) LogLikelihood(z *mat.Matrix) (ll, det float64) {
	_, det = f.innovCov()
	return -0.5 * (float64(z.Rows())*math.Log(2*math.Pi) + math.Log(det) + f.NIS(z)), det
}

// traceLCG is a tiny deterministic generator for reproducible measurement
// traces without math/rand.
type traceLCG uint64

func (g *traceLCG) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(int64(*g>>11)) / float64(1<<52) // roughly [-1, 1)
}

func equivalenceConfigs() map[string]Config {
	linear2 := Config{
		Phi: Static(mat.FromRows([][]float64{{1, 1}, {0, 1}})),
		H:   mat.FromRows([][]float64{{1, 0}}),
		Q:   mat.ScaledIdentity(2, 0.05),
		R:   mat.Diag(0.05),
		X0:  mat.Vec(0, 0),
		P0:  mat.ScaledIdentity(2, 10),
	}
	joseph := linear2
	joseph.JosephForm = true
	return map[string]Config{
		"linear2-standard": linear2,
		"linear2-joseph":   joseph,
		"meas2": {
			Phi: Static(mat.FromRows([][]float64{{1, 0.1}, {-0.1, 0.95}})),
			H:   mat.FromRows([][]float64{{1, 0}, {0.5, 1}}),
			Q:   mat.ScaledIdentity(2, 0.02),
			R:   mat.ScaledIdentity(2, 0.1),
			X0:  mat.Vec(1, -1),
			P0:  mat.ScaledIdentity(2, 5),
		},
	}
}

// TestRewriteMatchesReferenceTrace drives the flat-array filter and
// the reference implementation through a DKF-style trace — predictions,
// NIS probes, and corrections gated by an update-suppression rule — and
// requires bit-identical state, covariance and NIS at every step.
func TestRewriteMatchesReferenceTrace(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			f := MustNew(cfg)
			ref := newRefFilter(cfg)
			gen := traceLCG(12345)
			m := cfg.H.Rows()
			const delta = 0.3
			suppressed := 0
			for step := 0; step < 400; step++ {
				f.Predict()
				ref.Predict()
				zv := make([]float64, m)
				for i := range zv {
					zv[i] = 0.02*float64(step) + gen.next()
				}
				z := mat.Vec(zv...)
				gotNIS, err := f.NIS(z)
				if err != nil {
					t.Fatalf("step %d: NIS: %v", step, err)
				}
				if wantNIS := ref.NIS(z); gotNIS != wantNIS {
					t.Fatalf("step %d: NIS = %v, reference %v", step, gotNIS, wantNIS)
				}
				// DKF update suppression: skip the correction when the
				// prediction is within delta of the reading. Both sides must
				// take the same branch for the mirrors to stay in lockstep.
				dev := math.Abs(f.PredictedMeasurement().At(0, 0) - z.At(0, 0))
				refDev := math.Abs(mat.Mul(ref.h, ref.x).At(0, 0) - z.At(0, 0))
				if (dev < delta) != (refDev < delta) {
					t.Fatalf("step %d: suppression decisions diverge (dev %v vs %v)", step, dev, refDev)
				}
				if dev < delta {
					suppressed++
				} else {
					if err := f.Correct(z); err != nil {
						t.Fatalf("step %d: Correct: %v", step, err)
					}
					ref.Correct(z)
				}
				if !mat.Equal(f.State(), ref.x) {
					t.Fatalf("step %d: state diverged: %v vs %v", step, f.State(), ref.x)
				}
				if !mat.Equal(f.Cov(), ref.p) {
					t.Fatalf("step %d: covariance diverged: %v vs %v", step, f.Cov(), ref.p)
				}
			}
			if suppressed == 0 || suppressed == 400 {
				t.Fatalf("degenerate trace: %d/400 suppressed; want a mix of branches", suppressed)
			}
		})
	}
}

// TestServerMirrorBitIdentical clones a server filter into a mirror and
// replays the DKF protocol over a recorded trace. Only the mirror runs
// the NIS/LogLikelihood probes (as the source does when gating outliers),
// which must not perturb its state relative to the probe-free server.
func TestServerMirrorBitIdentical(t *testing.T) {
	cfg := equivalenceConfigs()["linear2-standard"]
	server := MustNew(cfg)
	mirror := server.Clone()
	gen := traceLCG(999)
	const delta = 0.25
	corrections := 0
	for step := 0; step < 500; step++ {
		server.Predict()
		mirror.Predict()
		z := mat.Vec(0.05*float64(step) + 2*gen.next())
		if _, err := mirror.NIS(z); err != nil {
			t.Fatalf("step %d: mirror NIS: %v", step, err)
		}
		if _, err := mirror.LogLikelihood(z); err != nil {
			t.Fatalf("step %d: mirror LogLikelihood: %v", step, err)
		}
		if math.Abs(mirror.PredictedMeasurement().At(0, 0)-z.At(0, 0)) >= delta {
			if err := mirror.Correct(z); err != nil {
				t.Fatalf("step %d: mirror Correct: %v", step, err)
			}
			if err := server.Correct(z); err != nil {
				t.Fatalf("step %d: server Correct: %v", step, err)
			}
			corrections++
		}
		if !StateEqual(server, mirror) {
			t.Fatalf("step %d: server and mirror diverged", step)
		}
	}
	if corrections == 0 {
		t.Fatal("degenerate trace: no corrections exercised")
	}
}

// TestCloneSharesNothingMutable steps a clone far away from its original
// and checks the original's observable state is untouched, byte for byte.
func TestCloneSharesNothingMutable(t *testing.T) {
	cfg := equivalenceConfigs()["linear2-standard"]
	f := MustNew(cfg)
	z := mat.Vec(1.5)
	for i := 0; i < 10; i++ {
		if err := f.Step(z); err != nil {
			t.Fatal(err)
		}
	}
	x0, p0 := f.State(), f.Cov()
	gain0, innov0 := f.Gain(), f.Innovation()
	c := f.Clone()
	for i := 0; i < 25; i++ {
		if err := c.Step(mat.Vec(-40 + float64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.NIS(mat.Vec(3)); err != nil {
			t.Fatal(err)
		}
	}
	if !mat.Equal(f.State(), x0) || !mat.Equal(f.Cov(), p0) {
		t.Fatal("stepping a clone mutated the original's state")
	}
	if !mat.Equal(f.Gain(), gain0) || !mat.Equal(f.Innovation(), innov0) {
		t.Fatal("stepping a clone mutated the original's gain/innovation")
	}
	if mat.Equal(c.State(), x0) {
		t.Fatal("clone did not actually diverge; test is vacuous")
	}
}

// TestFilterHotPathDoesNotAllocate pins the tentpole property: after the
// first correction (which installs the persistent gain/innovation
// buffers), Predict/Correct/NIS/LogLikelihood are allocation-free.
func TestFilterHotPathDoesNotAllocate(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			f := MustNew(cfg)
			zv := make([]float64, cfg.H.Rows())
			for i := range zv {
				zv[i] = 1.5
			}
			z := mat.Vec(zv...)
			if err := f.Step(z); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				f.Predict()
				if _, err := f.NIS(z); err != nil {
					t.Fatal(err)
				}
				if _, err := f.LogLikelihood(z); err != nil {
					t.Fatal(err)
				}
				if err := f.Correct(z); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("hot path allocates %v times per cycle", n)
			}
		})
	}
}
