package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := Vec(5, 10)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x.At(0, 0)-1) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Fatalf("Solve = %v, want [1;3]", x)
	}
}

func TestLUSolveMultiRHS(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	b := FromRows([][]float64{{10, 1}, {12, 0}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(a, x), b, 1e-10) {
		t.Fatalf("A*X != B: %v", Mul(a, x))
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Det(a); math.Abs(got-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", got)
	}
	if got := Det(Identity(5)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Det(I) = %v, want 1", got)
	}
	if got := Det(FromRows([][]float64{{1, 2}, {2, 4}})); got != 0 {
		t.Fatalf("Det(singular) = %v, want 0", got)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Vec(1, 2)); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestInverseKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv := New(2, 2)
	if _, err := InverseInto(inv, a, nil); err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !ApproxEqual(inv, want, 1e-12) {
		t.Fatalf("InverseInto = %v, want %v", inv, want)
	}
}

func TestLUDecomposeNonSquarePanics(t *testing.T) {
	defer expectPanic(t, "LU non-square")
	DecomposeLU(New(2, 3))
}

func TestLUPivoting(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, Vec(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-3) > 1e-12 || math.Abs(x.At(1, 0)-2) > 1e-12 {
		t.Fatalf("pivoted solve = %v, want [3;2]", x)
	}
}

// Property: for random well-conditioned A, A * A^-1 ~= I, and the
// determinant InverseInto returns matches the LU reference's (for n >= 3
// that checks the Gauss-Jordan path on every draw). A with its rows
// reversed is checked too: its pivots are off the diagonal, so the row
// swaps and the determinant's sign are exercised as well.
func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		// B^T*B + n*I is symmetric positive definite, hence invertible
		// and well conditioned enough for a 1e-8 check.
		b := randomMatrix(rng, n, n)
		a := Add(Mul(Transpose(b), b), ScaledIdentity(n, float64(n)))
		rev := New(n, n)
		for i := 0; i < n; i++ {
			copy(rev.data[i*n:(i+1)*n], a.data[(n-1-i)*n:(n-i)*n])
		}
		for _, m := range []*Matrix{a, rev} {
			inv := New(n, n)
			det, err := InverseInto(inv, m, nil)
			if err != nil {
				return false
			}
			lu, err := DecomposeLU(m)
			if err != nil {
				return false
			}
			luDet := lu.Det()
			if !ApproxEqual(Mul(m, inv), Identity(n), 1e-8) ||
				!ApproxEqual(Mul(inv, m), Identity(n), 1e-8) ||
				math.Abs(det-luDet) > 1e-8*math.Abs(luDet) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A*B) == det(A)*det(B).
func TestDetMultiplicativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		lhs := Det(Mul(a, b))
		rhs := Det(a) * Det(b)
		scale := math.Max(1, math.Max(math.Abs(lhs), math.Abs(rhs)))
		return math.Abs(lhs-rhs)/scale < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul4x4(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 4, 4)
	y := randomMatrix(rng, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkInverse4x4(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 4, 4)
	a := Add(Mul(Transpose(m), m), ScaledIdentity(4, 4))
	inv, scratch := New(4, 4), New(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := InverseInto(inv, a, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
