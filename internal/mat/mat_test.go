package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	// The matrix must own a copy: mutating the source must not alias.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice aliases caller data")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if got := FromRows(nil); got.Rows() != 0 || got.Cols() != 0 {
		t.Fatalf("FromRows(nil) = %dx%d, want 0x0", got.Rows(), got.Cols())
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged FromRows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	d := Diag(1, 1, 1)
	if !Equal(i3, d) {
		t.Fatalf("Identity(3) != Diag(1,1,1): %v vs %v", i3, d)
	}
	s := ScaledIdentity(2, 0.05)
	if s.At(0, 0) != 0.05 || s.At(1, 1) != 0.05 || s.At(0, 1) != 0 {
		t.Fatalf("ScaledIdentity wrong: %v", s)
	}
}

func TestVec(t *testing.T) {
	v := Vec(1, 2, 3)
	if v.Rows() != 3 || v.Cols() != 1 {
		t.Fatalf("Vec dims = %dx%d, want 3x1", v.Rows(), v.Cols())
	}
	got := v.VecSlice()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("VecSlice = %v", got)
	}
	got[0] = 42
	if v.At(0, 0) != 1 {
		t.Fatal("VecSlice aliases matrix storage")
	}
}

func TestVecSliceNonVectorPanics(t *testing.T) {
	defer expectPanic(t, "VecSlice on non-vector")
	New(2, 2).VecSlice()
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "At out of range")
	New(2, 2).At(2, 0)
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := Add(a, b)
	want := FromRows([][]float64{{11, 22}, {33, 44}})
	if !Equal(sum, want) {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
	diff := Sub(sum, b)
	if !Equal(diff, a) {
		t.Fatalf("Sub(Add(a,b),b) = %v, want a = %v", diff, a)
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 1}})
	b := FromRows([][]float64{{2, 3}})
	got := AddInPlace(a, b)
	if got != a {
		t.Fatal("AddInPlace must return its receiver")
	}
	if a.At(0, 0) != 3 || a.At(0, 1) != 4 {
		t.Fatalf("AddInPlace result %v", a)
	}
}

func TestAddDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add dim mismatch")
	Add(New(2, 2), New(2, 3))
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := Mul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !Equal(got, want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 4, 4)
	if !ApproxEqual(Mul(a, Identity(4)), a, 0) {
		t.Fatal("A*I != A")
	}
	if !ApproxEqual(Mul(Identity(4), a), a, 0) {
		t.Fatal("I*A != A")
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Mul dim mismatch")
	Mul(New(2, 3), New(2, 3))
}

func TestScaleNegTrace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	s := Scale(2, a)
	if s.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", s)
	}
}

func TestTransposeKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := Transpose(a)
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v", at)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 4}, {2, 3}})
	s := Symmetrize(a)
	want := FromRows([][]float64{{1, 3}, {3, 3}})
	if !Equal(s, want) {
		t.Fatalf("Symmetrize = %v, want %v", s, want)
	}
}

func TestEqualApproxEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.0000001}})
	if Equal(a, b) {
		t.Fatal("Equal on different values")
	}
	if !ApproxEqual(a, b, 1e-6) {
		t.Fatal("ApproxEqual should hold at tol 1e-6")
	}
	if ApproxEqual(a, New(1, 3), 1) {
		t.Fatal("ApproxEqual across dims")
	}
}

func TestIsFinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	if !IsFinite(a) {
		t.Fatal("finite matrix reported non-finite")
	}
	a.Set(0, 0, math.NaN())
	if IsFinite(a) {
		t.Fatal("NaN not detected")
	}
	a.Set(0, 0, math.Inf(1))
	if IsFinite(a) {
		t.Fatal("Inf not detected")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestString(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {3, 4}}).String()
	if s != "2x2[1 2; 3 4]" {
		t.Fatalf("String = %q", s)
	}
}

// Property: (A^T)^T == A for random matrices.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		return Equal(Transpose(Transpose(a)), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		return ApproxEqual(Transpose(Mul(a, b)), Mul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: A + B == B + A.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		return Equal(Add(a, b), Add(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}
