package mat

import (
	"math"
	"testing"
)

func seqMatrix(r, c int, start float64) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = start + float64(i)*0.7
	}
	return m
}

func TestIntoKernelsMatchAllocatingAPI(t *testing.T) {
	a := seqMatrix(3, 4, 1)
	b := seqMatrix(4, 2, -2)

	got := MulInto(New(3, 2), a, b)
	if !Equal(got, Mul(a, b)) {
		t.Fatalf("MulInto = %v, want %v", got, Mul(a, b))
	}

	got = TransposeInto(New(4, 3), a)
	if !Equal(got, Transpose(a)) {
		t.Fatalf("TransposeInto = %v, want %v", got, Transpose(a))
	}

	x := seqMatrix(3, 3, 2)
	y := seqMatrix(3, 3, -1)
	if got := AddInto(New(3, 3), x, y); !Equal(got, Add(x, y)) {
		t.Fatalf("AddInto mismatch")
	}
	if got := SubInto(New(3, 3), x, y); !Equal(got, Sub(x, y)) {
		t.Fatalf("SubInto mismatch")
	}
	if got := ScaleInto(New(3, 3), 2.5, x); !Equal(got, Scale(2.5, x)) {
		t.Fatalf("ScaleInto mismatch")
	}
	if got := SymmetrizeInto(New(3, 3), x); !Equal(got, Symmetrize(x)) {
		t.Fatalf("SymmetrizeInto mismatch")
	}
	if got := IdentityMinusInto(New(3, 3), x); !Equal(got, Sub(Identity(3), x)) {
		t.Fatalf("IdentityMinusInto mismatch")
	}
}

func TestElementwiseIntoAliasing(t *testing.T) {
	x := seqMatrix(3, 3, 2)
	y := seqMatrix(3, 3, -1)

	want := Add(x, y)
	got := x.Clone()
	AddInto(got, got, y)
	if !Equal(got, want) {
		t.Fatalf("aliased AddInto = %v, want %v", got, want)
	}

	want = Sub(x, y)
	got = x.Clone()
	SubInto(got, got, y)
	if !Equal(got, want) {
		t.Fatalf("aliased SubInto = %v, want %v", got, want)
	}

	want = Symmetrize(x)
	got = x.Clone()
	SymmetrizeInto(got, got)
	if !Equal(got, want) {
		t.Fatalf("aliased SymmetrizeInto = %v, want %v", got, want)
	}

	want = Sub(Identity(3), x)
	got = x.Clone()
	IdentityMinusInto(got, got)
	if !Equal(got, want) {
		t.Fatalf("aliased IdentityMinusInto = %v, want %v", got, want)
	}
}

func TestMulIntoAliasPanics(t *testing.T) {
	a := seqMatrix(2, 2, 1)
	b := seqMatrix(2, 2, 3)
	for _, fn := range []func(){
		func() { MulInto(a, a, b) },
		func() { TransposeInto(a, a) },
		func() { InverseInto(a, a, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("aliased kernel did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestInverseIntoClosedForms(t *testing.T) {
	// 1x1.
	a := Diag(4)
	dst := New(1, 1)
	det, err := InverseInto(dst, a, nil)
	if err != nil || det != 4 || dst.At(0, 0) != 0.25 {
		t.Fatalf("1x1 inverse: dst=%v det=%v err=%v", dst, det, err)
	}
	// 2x2 against the LU-based solver.
	b := FromRows([][]float64{{3, 1.5}, {-2, 4}})
	dst = New(2, 2)
	det, err = InverseInto(dst, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*4 - 1.5*(-2); det != want {
		t.Fatalf("2x2 det = %v, want %v", det, want)
	}
	lu, err := DecomposeLU(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lu.Solve(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(dst, want, 1e-12) {
		t.Fatalf("2x2 inverse = %v, want %v", dst, want)
	}
	if !ApproxEqual(Mul(dst, b), Identity(2), 1e-12) {
		t.Fatalf("2x2 inverse does not invert: %v", Mul(dst, b))
	}
}

func TestInverseIntoGaussJordan(t *testing.T) {
	a := FromRows([][]float64{
		{4, 1, 0, 0.5},
		{1, 5, 1, 0},
		{0, 1, 6, 1},
		{0.5, 0, 1, 7},
	})
	dst := New(4, 4)
	scratch := New(4, 4)
	det, err := InverseInto(dst, a, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if luDet := Det(a); math.Abs(det-luDet) > 1e-9*math.Abs(luDet) {
		t.Fatalf("det = %v, LU det = %v", det, luDet)
	}
	if !ApproxEqual(Mul(dst, a), Identity(4), 1e-10) {
		t.Fatalf("4x4 inverse does not invert")
	}
}

func TestInverseIntoSingular(t *testing.T) {
	for _, a := range []*Matrix{
		Diag(0),
		FromRows([][]float64{{1, 2}, {2, 4}}),
		FromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {0, 1, 1}}),
	} {
		if _, err := InverseInto(New(a.Rows(), a.Cols()), a, nil); err != ErrSingular {
			t.Fatalf("%v: err = %v, want ErrSingular", a, err)
		}
	}
}

func TestReshapeReusesStorage(t *testing.T) {
	m := New(4, 4)
	data := m.data
	m.Reshape(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || len(m.data) != 6 {
		t.Fatalf("Reshape: got %dx%d len %d", m.Rows(), m.Cols(), len(m.data))
	}
	if &m.data[0] != &data[0] {
		t.Fatalf("Reshape reallocated despite sufficient capacity")
	}
	m.Reshape(5, 5)
	if len(m.data) != 25 {
		t.Fatalf("Reshape grow: len %d", len(m.data))
	}
}

func TestIntoKernelsDoNotAllocate(t *testing.T) {
	a := seqMatrix(4, 4, 1)
	b := seqMatrix(4, 4, -2)
	dst := New(4, 4)
	scratch := New(4, 4)
	inv := New(4, 4)
	spd := FromRows([][]float64{
		{4, 1, 0, 0.5},
		{1, 5, 1, 0},
		{0, 1, 6, 1},
		{0.5, 0, 1, 7},
	})
	checks := map[string]func(){
		"MulInto":       func() { MulInto(dst, a, b) },
		"TransposeInto": func() { TransposeInto(dst, a) },
		"AddInto":       func() { AddInto(dst, a, b) },
		"SubInto":       func() { SubInto(dst, a, b) },
		"Symmetrize":    func() { SymmetrizeInto(dst, a) },
		"InverseInto":   func() { InverseInto(inv, spd, scratch) },
	}
	for name, fn := range checks {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per run", name, n)
		}
	}
}
