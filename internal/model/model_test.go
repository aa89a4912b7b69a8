package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/kalman"
	"streamkf/internal/mat"
)

func TestCatalogValidates(t *testing.T) {
	models := []Model{
		Constant(1, 0.05, 0.05),
		Constant(3, 0.05, 0.05),
		Linear(2, 0.1, 0.05, 0.05),
		Acceleration(1, 0.1, 0.05, 0.05),
		Jerk(2, 0.1, 0.05, 0.05),
		Sinusoidal(18/math.Pi, math.Pi, 1, 0.05, 0.05),
		Smoothing(1e-7, 0.5),
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	base := func() Model { return Constant(2, 0.1, 0.1) }
	cases := map[string]func(*Model){
		"empty name": func(m *Model) { m.Name = "" },
		"zero dim":   func(m *Model) { m.Dim = 0 },
		"nil phi":    func(m *Model) { m.Phi = nil },
		"nil init":   func(m *Model) { m.Init = nil },
		"bad H":      func(m *Model) { m.H = mat.New(2, 5) },
		"bad Q":      func(m *Model) { m.Q = mat.Identity(5) },
		"bad R":      func(m *Model) { m.R = mat.Identity(5) },
		"bad phi":    func(m *Model) { m.Phi = kalman.Static(mat.Identity(7)) },
	}
	for name, mutate := range cases {
		m := base()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken model", name)
		}
	}
}

func TestLinearMatchesPaperEq14(t *testing.T) {
	// The paper's Eq. 14: 4x4 with dt in the (0,1) and (2,3) slots.
	dt := 0.25
	m := Linear(2, dt, 0.05, 0.05)
	want := mat.FromRows([][]float64{
		{1, dt, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, dt},
		{0, 0, 0, 1},
	})
	if !mat.Equal(m.Phi(0), want) {
		t.Fatalf("Linear phi = %v, want %v", m.Phi(0), want)
	}
	// Eq. 16: H picks out positions.
	wantH := mat.FromRows([][]float64{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
	})
	if !mat.Equal(m.H, wantH) {
		t.Fatalf("Linear H = %v, want %v", m.H, wantH)
	}
}

func TestConstantMatchesPaperEq15(t *testing.T) {
	m := Constant(2, 0.05, 0.05)
	if !mat.Equal(m.Phi(0), mat.Identity(2)) {
		t.Fatalf("Constant phi = %v, want I", m.Phi(0))
	}
	if !mat.Equal(m.Q, mat.ScaledIdentity(2, 0.05)) {
		t.Fatalf("Constant Q = %v", m.Q)
	}
}

func TestJerkTransitionTaylorTerms(t *testing.T) {
	dt := 2.0
	m := Jerk(1, dt, 0.01, 0.01)
	phi := m.Phi(0)
	// P_k = P + Ṗδt + ½P̈δt² + ⅙P⃛δt³.
	wants := []float64{1, dt, dt * dt / 2, dt * dt * dt / 6}
	for j, w := range wants {
		if got := phi.At(0, j); math.Abs(got-w) > 1e-12 {
			t.Fatalf("phi[0][%d] = %v, want %v", j, got, w)
		}
	}
}

func TestSinusoidalTimeVarying(t *testing.T) {
	m := Sinusoidal(18/math.Pi, math.Pi, 1, 0.05, 0.05)
	p0 := m.Phi(0).At(0, 1)
	p1 := m.Phi(1).At(0, 1)
	if p0 == p1 {
		t.Fatal("sinusoidal phi not time-varying")
	}
	if math.Abs(p0-math.Cos(math.Pi)) > 1e-12 {
		t.Fatalf("phi(0)[0][1] = %v, want cos(θ) = -1", p0)
	}
}

func TestInitBootstrapsFromMeasurement(t *testing.T) {
	m := Linear(2, 0.1, 0.05, 0.05)
	x := m.Init([]float64{7, 9})
	if x.At(0, 0) != 7 || x.At(2, 0) != 9 || x.At(1, 0) != 0 || x.At(3, 0) != 0 {
		t.Fatalf("Init = %v", x)
	}
}

func TestNewFilterRejectsBadBootstrap(t *testing.T) {
	m := Linear(2, 0.1, 0.05, 0.05)
	if _, err := m.NewFilter([]float64{1}); err == nil {
		t.Fatal("NewFilter accepted wrong measurement arity")
	}
	broken := m
	broken.Q = mat.Identity(3)
	if _, err := broken.NewFilter([]float64{1, 2}); err == nil {
		t.Fatal("NewFilter accepted invalid model")
	}
}

func TestLinearFilterTracksTrajectory(t *testing.T) {
	// End-to-end: a Linear(2) filter built via the model must track a 2-D
	// ramp and extrapolate it.
	m := Linear(2, 1, 1e-4, 0.05)
	f, err := m.NewFilter([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 80; k++ {
		if err := f.Step(mat.Vec(2*float64(k), -1*float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	f.Predict()
	pred := f.PredictedMeasurement()
	if math.Abs(pred.At(0, 0)-2*81) > 1 || math.Abs(pred.At(1, 0)-(-81)) > 1 {
		t.Fatalf("extrapolation = %v, want ~[162, -81]", pred)
	}
}

func TestSinusoidalFilterTracksSine(t *testing.T) {
	// Verify the §4.2 model locks onto α·sin(ωk+θ).
	omega, theta, alpha := 0.1, 0.5, 10.0
	gamma := alpha * omega // d/dk α sin(ωk+θ) = αω cos(ωk+θ)
	m := Sinusoidal(omega, theta, gamma, 1e-6, 0.01)
	truth := func(k int) float64 { return alpha * math.Sin(omega*float64(k)+theta) }
	f, err := m.NewFilter([]float64{truth(0)})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 400; k++ {
		if err := f.Step(mat.Vec(truth(k))); err != nil {
			t.Fatal(err)
		}
	}
	// One-step extrapolation without correction.
	f.Predict()
	if got, want := f.PredictedMeasurement().At(0, 0), truth(401); math.Abs(got-want) > 0.5 {
		t.Fatalf("sinusoidal extrapolation = %v, want ~%v", got, want)
	}
}

func TestSmoothingFactorControlsVariance(t *testing.T) {
	// Smaller F must produce a smoother (lower-variance) output on white
	// noise — the paper's Figure 12 mechanism.
	variance := func(F float64) float64 {
		rng := rand.New(rand.NewSource(5))
		m := Smoothing(F, 1.0)
		f, err := m.NewFilter([]float64{0})
		if err != nil {
			t.Fatal(err)
		}
		var prev, sumSq float64
		const n = 2000
		for i := 0; i < n; i++ {
			if err := f.Step(mat.Vec(rng.NormFloat64() * 10)); err != nil {
				t.Fatal(err)
			}
			cur := f.State().At(0, 0)
			d := cur - prev
			sumSq += d * d
			prev = cur
		}
		return sumSq / n
	}
	smooth := variance(1e-9)
	rough := variance(1e-1)
	if smooth >= rough {
		t.Fatalf("variance(F=1e-9) = %v >= variance(F=1e-1) = %v", smooth, rough)
	}
}

func TestCustomDefaultsInit(t *testing.T) {
	m := Custom("custom", kalman.Static(mat.Identity(2)),
		mat.FromRows([][]float64{{1, 0}}), mat.ScaledIdentity(2, 0.1), mat.Diag(0.1), nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := m.Init([]float64{42})
	if x.At(0, 0) != 42 || x.At(1, 0) != 0 {
		t.Fatalf("Custom default Init = %v", x)
	}
}

// Property: every polynomial model's transition matrix has ones on the
// diagonal and is block upper-triangular (states never mix across axes).
func TestPolynomialStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		axes := 1 + rng.Intn(3)
		order := 2 + rng.Intn(3)
		dt := 0.01 + rng.Float64()
		m := polynomial("p", axes, order, dt, 0.1, 0.1)
		phi := m.Phi(0)
		for i := 0; i < m.Dim; i++ {
			if phi.At(i, i) != 1 {
				return false
			}
			for j := 0; j < m.Dim; j++ {
				sameBlock := i/order == j/order
				if !sameBlock && phi.At(i, j) != 0 {
					return false
				}
				if sameBlock && j < i && phi.At(i, j) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInitFilterInPlace: every catalogue model bootstraps a filter in place
// without allocating, to the state its Init returns; a Custom model with
// only an allocating Init still builds; a measurement of the wrong length
// is refused with the filter as it was.
func TestInitFilterInPlace(t *testing.T) {
	custom := Custom("offset", kalman.Static(mat.Identity(1)), mat.Identity(1), mat.Diag(0.1), mat.Diag(0.1),
		func(z []float64) *mat.Matrix { return mat.Vec(z[0] + 10) })
	for _, m := range []Model{Constant(2, 0.05, 0.05), Linear(2, 0.1, 0.05, 0.05), Jerk(1, 1, 0.05, 0.05), Sinusoidal(1, 0, 1, 0.05, 0.05), Smoothing(1e-4, 1), custom} {
		z := make([]float64, m.MeasDim)
		for i := range z {
			z[i] = float64(i + 3)
		}
		var f kalman.Filter
		block := make([]float64, m.BlockLen())
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.InitFilter(&f, block, z); err != nil {
				t.Fatal(err)
			}
		})
		// A time-varying Phi builds its matrix per call; validation makes one.
		phi := testing.AllocsPerRun(10, func() { m.Phi(0) })
		if (allocs != phi) != (m.InitInto == nil) {
			t.Errorf("%s: InitFilter allocates %v beside Phi's %v; InitInto set: %v", m.Name, allocs, phi, m.InitInto != nil)
		}
		if !mat.Equal(f.State(), m.Init(z)) {
			t.Errorf("%s: bootstrapped to %v, Init says %v", m.Name, f.State(), m.Init(z))
		}
		heap, err := m.NewFilter(z)
		if err != nil || !kalman.StateEqual(heap, &f) {
			t.Errorf("%s: NewFilter (%v) and InitFilter disagree", m.Name, err)
		}
		f.Predict()
		if err := m.InitFilter(&f, block, append(z, 0)); err == nil || f.K() != 1 {
			t.Errorf("%s: a measurement one value too long: err %v, filter at k=%d", m.Name, err, f.K())
		}
	}
}
