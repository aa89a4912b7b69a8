package kalman_test

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"

	"streamkf/internal/dsms"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/model"
)

// bitIdentityConfigs is every shape the kernel has a code path for: all
// DefaultCatalog models (1x1 and 2x1 run unrolled, the rest in loops),
// the sinusoidal model's time-varying φ, a 1x1 smoother, the Joseph form
// (always in loops, so on 1x1 it reaches the loops' own 1x1 case), and a
// dense 2x2-measurement system. z0 seeds the initial state, so a −0 there reaches the 1x1
// products that do not accumulate.
func bitIdentityConfigs(z0 float64) map[string]kalman.Config {
	fromModel := func(m model.Model) kalman.Config {
		z := make([]float64, m.MeasDim)
		for i := range z {
			z[i] = z0
		}
		return kalman.Config{Phi: m.Phi, H: m.H, Q: m.Q, R: m.R, X0: m.Init(z), P0: m.P0}
	}
	out := map[string]kalman.Config{
		"sinusoidal": fromModel(model.Sinusoidal(18/math.Pi, math.Pi, 0.8, 0.05, 0.05)),
		"smoothing":  fromModel(model.Smoothing(1e-3, 1)),
		"meas2": {
			Phi: kalman.Static(mat.FromRows([][]float64{{1, 0.1}, {-0.1, 0.95}})),
			H:   mat.FromRows([][]float64{{1, 0}, {0.5, 1}}),
			Q:   mat.ScaledIdentity(2, 0.02),
			R:   mat.ScaledIdentity(2, 0.1),
			X0:  mat.Vec(z0, -1),
			P0:  mat.ScaledIdentity(2, 5),
		},
	}
	catalog := dsms.DefaultCatalog(0.1)
	for _, name := range catalog.Names() {
		m, err := catalog.Resolve(name)
		if err != nil {
			panic(err)
		}
		out[name] = fromModel(m)
	}
	for _, name := range []string{"constant", "linear", "linear2d"} {
		j := out[name]
		j.JosephForm = true
		out[name+"-joseph"] = j
	}
	// Degenerate covariances put the special values where measurements
	// cannot: a frozen filter (P = Q = 0) has zero gains, zero left
	// factors that must be skipped when a NaN innovation is on the right;
	// a huge P0 overflows, so P itself fills with Inf and NaN that the
	// zeros of φ, H and I−KH then meet.
	for _, name := range []string{"constant", "linear", "linear2d"} {
		n := out[name].X0.Rows()
		frozen, huge := out[name], out[name]
		frozen.P0, frozen.Q = mat.New(n, n), mat.New(n, n)
		huge.P0 = mat.ScaledIdentity(n, math.MaxFloat64)
		out[name+"-frozen"], out[name+"-huge"] = frozen, huge
	}
	return out
}

func sortedNames(m map[string]kalman.Config) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sameBits is the equality the contract promises: identical bit
// patterns, except that any NaN equals any NaN. Which NaN comes out of
// an operation on two NaNs is the hardware's choice of operand, and the
// compiler is free to commute + and ×.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func sameMatrix(a, b *mat.Matrix) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	av, bv := a.RawData(), b.RawData()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := range av {
		if !sameBits(av[i], bv[i]) {
			return false
		}
	}
	return true
}

// replay drives the filter and the reference through the DKF's operation
// mix — predict, NIS and log-likelihood probes, and a correction gated by
// the suppression rule — and reports the first step at which any bit of
// x, P, K, NIS or the log-likelihood differs. next yields the
// measurement values in order.
func replay(t testing.TB, cfg kalman.Config, steps int, delta float64, next func() float64) (corrections int) {
	t.Helper()
	return replayWatch(t, cfg, steps, delta, next, nil)
}

// replayWatch is replay calling watch, when not nil, with the filter
// after each step's predict.
func replayWatch(t testing.TB, cfg kalman.Config, steps int, delta float64, next func() float64, watch func(*kalman.Filter)) (corrections int) {
	t.Helper()
	f, ref := kalman.MustNew(cfg), kalman.NewRefFilter(cfg)
	m := cfg.H.Rows()
	for step := 0; step < steps; step++ {
		f.Predict()
		ref.Predict()
		if watch != nil {
			watch(f)
		}
		zv := make([]float64, m)
		for i := range zv {
			zv[i] = next()
		}
		z := mat.Vec(zv...)
		nis, err := f.NIS(z)
		if err != nil {
			t.Fatalf("step %d: NIS: %v", step, err)
		}
		if want := ref.NIS(z); !sameBits(nis, want) {
			t.Fatalf("step %d: NIS(%v) = %v (%#x), reference %v (%#x)", step, zv, nis, math.Float64bits(nis), want, math.Float64bits(want))
		}
		wantLL, det := ref.LogLikelihood(z)
		if ll, err := f.LogLikelihood(z); err != nil {
			if det > 0 {
				t.Fatalf("step %d: LogLikelihood: %v with det S = %v", step, err, det)
			}
		} else if !sameBits(ll, wantLL) {
			t.Fatalf("step %d: LogLikelihood(%v) = %v, reference %v", step, zv, ll, wantLL)
		}
		// Suppress when the prediction is within delta of the reading; a
		// NaN on either side compares false and is corrected in.
		pred := f.PredictedMeasurement()
		if !sameMatrix(pred, mat.Mul(cfg.H, ref.State())) {
			t.Fatalf("step %d: predicted measurement %v, reference %v", step, pred, mat.Mul(cfg.H, ref.State()))
		}
		if !(math.Abs(pred.At(0, 0)-zv[0]) < delta) {
			if err := f.CorrectValues(zv); err != nil {
				t.Fatalf("step %d: Correct: %v", step, err)
			}
			ref.Correct(z)
			corrections++
		}
		if !sameMatrix(f.State(), ref.State()) {
			t.Fatalf("step %d (z %v): state %v, reference %v", step, zv, f.State(), ref.State())
		}
		if !sameMatrix(f.Cov(), ref.Cov()) {
			t.Fatalf("step %d (z %v): covariance %v, reference %v", step, zv, f.Cov(), ref.Cov())
		}
		if !sameMatrix(f.Gain(), ref.Gain()) {
			t.Fatalf("step %d (z %v): gain %v, reference %v", step, zv, f.Gain(), ref.Gain())
		}
	}
	return corrections
}

// lcg is a tiny deterministic generator, roughly uniform on [-1, 1).
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(int64(*g>>11)) / float64(1<<52)
}

// TestFilterMatchesReference replays, for every configuration, a drifting
// noisy trace (a mix of suppressed and corrected steps) and then the
// same trace salted with the values that tell operation orders apart:
// 0 and −0 (a product that accumulates from +0 loses the sign, a bare
// one keeps it), 1e300 (overflow to Inf, then Inf−Inf), and NaN (a
// skipped zero factor must not meet it).
func TestFilterMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, 1e300, -1e300, math.NaN()}
	for _, z0 := range []float64{1.5, 0, negZero} {
		cfgs := bitIdentityConfigs(z0)
		// Every catalogue model with one state measures it with H = 1, so
		// (P H) S⁻¹ and P (H S⁻¹) agree there; a gain of 0.3 tells them apart.
		cfgs["constant-h0.3"] = kalman.Config{Phi: kalman.Static(mat.Identity(1)), H: mat.Diag(0.3), Q: mat.Diag(0.05), R: mat.Diag(0.05), X0: mat.Vec(z0)}
		for _, name := range sortedNames(cfgs) {
			cfg := cfgs[name]
			t.Run(name, func(t *testing.T) {
				gen, n := lcg(12345), 0
				drift := func() float64 { n++; return 0.02*float64(n) + gen.next() }
				c := replay(t, cfg, 400, 0.3, drift)
				degenerate := strings.HasSuffix(name, "-frozen") || strings.HasSuffix(name, "-huge")
				if !degenerate && (c == 0 || c == 400) {
					t.Fatalf("degenerate trace: %d/400 corrected; want a mix of branches", c)
				}
				// Each special alone after a clean prefix, so one does not
				// mask the next by turning the whole state to NaN first.
				for _, sp := range specials {
					gen, n = lcg(999), 0
					replay(t, cfg, 60, 0.3, func() float64 {
						if v := drift(); n%7 != 0 || n < 20 {
							return v
						}
						return sp
					})
				}
			})
		}
	}
}

// FuzzFilterMatchesReference lets the fuzzer pick the configuration, the
// suppression width and the raw bit patterns of every measurement.
func FuzzFilterMatchesReference(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), 0.3, word(1, 2, 3, 2.5, 0, math.Copysign(0, -1), 7))
	f.Add(uint8(3), 1e-9, word(1e300, -1e300, 4, 5, 6))
	f.Add(uint8(7), 0.19, word(1, math.NaN(), 2, 3))
	f.Add(uint8(9), 5.0, word(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
	cfgs := bitIdentityConfigs(math.Copysign(0, -1))
	names := sortedNames(cfgs)
	f.Fuzz(func(t *testing.T, pick uint8, delta float64, data []byte) {
		cfg := cfgs[names[int(pick)%len(names)]]
		steps := len(data) / 8 / cfg.H.Rows()
		if steps > 256 {
			steps = 256
		}
		replay(t, cfg, steps, delta, func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		})
	})
}
