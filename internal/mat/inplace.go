package mat

import "fmt"

// Destination-taking kernels for allocation-free inner loops.
//
// Convention: the destination is the first argument and must already have
// the result's dimensions (InverseInto reshapes its scratch argument
// itself). Element-wise kernels (AddInto, SubInto, ScaleInto,
// SymmetrizeInto, IdentityMinusInto) permit dst to alias an operand.
// Data-movement kernels (MulInto, TransposeInto, InverseInto) require dst
// and scratch to be distinct from every operand and panic on violation.
// Matrices in this package never share backing storage, so pointer
// identity is a complete aliasing check.
//
// Every kernel applies the same floating-point operation order as its
// allocating counterpart (which is now a thin wrapper), so switching an
// algorithm to the Into forms is bit-identical — the property the DKF
// mirror-synchrony invariant depends on.
//
// The loops themselves live in the Flat forms (MulFlat, TransposeFlat,
// SymmetrizeFlat, IdentityMinusFlat, InverseFlat), which take bare
// row-major storage plus dimensions and check nothing: the Kalman filter
// keeps all its matrices in one block and calls them directly, the Into
// forms are the same loops behind dimension and aliasing checks. There is
// one implementation of each operation, so the two cannot drift apart.

// checkDst stays under the inlining budget by keeping the panic
// formatting in a cold helper: the dimension guard runs on every kernel
// call in the filter hot loop, where a function call per check is
// measurable against 1x1 operands.
func checkDst(op string, dst *Matrix, r, c int) {
	if dst.rows != r || dst.cols != c {
		badDst(op, dst, r, c)
	}
}

func badDst(op string, dst *Matrix, r, c int) {
	panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, dst.rows, dst.cols, r, c))
}

func checkNoAlias(op string, dst *Matrix, operands ...*Matrix) {
	for _, a := range operands {
		if dst == a {
			panic(fmt.Sprintf("mat: %s destination aliases an operand", op))
		}
	}
}

// Reshape resizes m to r x c, reusing the backing storage when it has the
// capacity and reallocating otherwise. The element contents after a
// reshape are unspecified. It returns m.
func (m *Matrix) Reshape(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	n := r * c
	if cap(m.data) >= n {
		m.data = m.data[:n]
	} else {
		m.data = make([]float64, n)
	}
	m.rows, m.cols = r, c
	return m
}

// AddInto sets dst = a + b and returns dst. dst may alias a and/or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	sameDims("AddInto", a, b)
	checkDst("AddInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst
}

// SubInto sets dst = a - b and returns dst. dst may alias a and/or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	sameDims("SubInto", a, b)
	checkDst("SubInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst
}

// ScaleInto sets dst = s * a and returns dst. dst may alias a.
func ScaleInto(dst *Matrix, s float64, a *Matrix) *Matrix {
	checkDst("ScaleInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = s * a.data[i]
	}
	return dst
}

// MulInto sets dst = a * b and returns dst. dst must not alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	checkNoAlias("MulInto", dst, a, b)
	checkDst("MulInto", dst, a.rows, b.cols)
	MulFlat(dst.data, a.data, b.data, a.rows, a.cols, b.cols)
	return dst
}

// MulFlat sets dst (r x q) = a (r x c) · b (c x q) on bare row-major
// storage; dst must not overlap a or b. Every element accumulates its
// terms from +0 in order of k, and a term whose left factor a[i][k] is
// zero is skipped — it adds neither 0 nor, against an infinite or NaN
// right factor, NaN. A 1x1 by 1x1 product does not accumulate at all: it
// is the bare product (a −0 stays −0), or +0 for a zero left factor.
// Rows of 1, 2 and 4 columns — the widths of the paper's models — are
// unrolled; the arithmetic is the same as in the loop.
func MulFlat(dst, a, b []float64, r, c, q int) {
	if r == 1 && c == 1 && q == 1 {
		if av := a[0]; av == 0 {
			dst[0] = 0
		} else {
			dst[0] = av * b[0]
		}
		return
	}
	dst = dst[:r*q]
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < r; i++ {
		orow := dst[i*q : (i+1)*q]
		for k, av := range a[i*c : (i+1)*c] {
			if av == 0 {
				continue
			}
			brow := b[k*q : (k+1)*q]
			switch q {
			case 1:
				orow[0] += float64(av * brow[0])
			case 2:
				o, bb := (*[2]float64)(orow), (*[2]float64)(brow)
				o[0] += float64(av * bb[0])
				o[1] += float64(av * bb[1])
			case 4:
				o, bb := (*[4]float64)(orow), (*[4]float64)(brow)
				o[0] += float64(av * bb[0])
				o[1] += float64(av * bb[1])
				o[2] += float64(av * bb[2])
				o[3] += float64(av * bb[3])
			default:
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	}
}

// TransposeInto sets dst = a^T and returns dst. dst must not alias a.
func TransposeInto(dst, a *Matrix) *Matrix {
	checkNoAlias("TransposeInto", dst, a)
	checkDst("TransposeInto", dst, a.cols, a.rows)
	TransposeFlat(dst.data, a.data, a.rows, a.cols)
	return dst
}

// TransposeFlat sets dst (c x r) = a^T for a stored r x c; dst must not
// overlap a.
func TransposeFlat(dst, a []float64, r, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst[j*r+i] = a[i*c+j]
		}
	}
}

// SymmetrizeInto sets dst = (a + a^T)/2 and returns dst. dst may alias a.
func SymmetrizeInto(dst, a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: SymmetrizeInto on non-square %dx%d", a.rows, a.cols))
	}
	checkDst("SymmetrizeInto", dst, a.rows, a.cols)
	SymmetrizeFlat(dst.data, a.data, a.rows)
	return dst
}

// SymmetrizeFlat sets dst = (a + a^T)/2 for n x n a; dst may be a.
func SymmetrizeFlat(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		dst[i*n+i] = a[i*n+i]
		for j := i + 1; j < n; j++ {
			v := (a[i*n+j] + a[j*n+i]) / 2
			dst[i*n+j] = v
			dst[j*n+i] = v
		}
	}
}

// IdentityMinusInto sets dst = I - a for square a and returns dst. dst may
// alias a. Each element is produced by the single subtraction I_ij - a_ij,
// matching Sub(Identity(n), a) bit for bit.
func IdentityMinusInto(dst, a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: IdentityMinusInto on non-square %dx%d", a.rows, a.cols))
	}
	checkDst("IdentityMinusInto", dst, a.rows, a.cols)
	IdentityMinusFlat(dst.data, a.data, a.rows)
	return dst
}

// IdentityMinusFlat sets dst = I - a for n x n a, each element the
// single subtraction I_ij - a_ij (so 0 - a_ij off the diagonal, which is
// not -a_ij when a_ij is a zero); dst may be a.
func IdentityMinusFlat(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var id float64
			if i == j {
				id = 1
			}
			dst[i*n+j] = id - a[i*n+j]
		}
	}
}

// InverseInto sets dst = a^-1 for square a and returns det(a). Orders 1
// and 2 — the innovation covariance sizes of the paper's scalar and 2-D
// streams — use closed forms and touch no scratch; larger orders run
// Gauss-Jordan elimination with partial pivoting inside scratch, which is
// reshaped to a's dimensions (nil allocates one). dst must not alias a;
// scratch must be distinct from both.
func InverseInto(dst, a, scratch *Matrix) (float64, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: InverseInto on non-square %dx%d", a.rows, a.cols))
	}
	checkNoAlias("InverseInto", dst, a, scratch)
	checkDst("InverseInto", dst, a.rows, a.cols)
	n := a.rows
	if n <= 2 {
		return InverseFlat(dst.data, a.data, nil, n)
	}
	if scratch == nil {
		scratch = &Matrix{}
	}
	if scratch == a {
		panic("mat: InverseInto scratch aliases an operand")
	}
	return InverseFlat(dst.data, a.data, scratch.Reshape(n, n).data, n)
}

// InverseFlat is InverseInto on bare row-major storage: dst, a and (for
// n > 2) w hold n*n values each and must not overlap.
func InverseFlat(dst, a, w []float64, n int) (float64, error) {
	switch n {
	case 0:
		return 1, nil
	case 1:
		v := a[0]
		if v == 0 {
			return 0, ErrSingular
		}
		dst[0] = 1 / v
		return v, nil
	case 2:
		a00, a01, a10, a11 := a[0], a[1], a[2], a[3]
		det := float64(a00*a11) - float64(a01*a10)
		if det == 0 {
			return 0, ErrSingular
		}
		dst[0] = a11 / det
		dst[1] = -a01 / det
		dst[2] = -a10 / det
		dst[3] = a00 / det
		return det, nil
	}
	dst, w = dst[:n*n], w[:n*n]
	copy(w, a)
	// dst starts as the identity and receives every row operation applied
	// to the working copy, ending as a^-1.
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < n; i++ {
		dst[i*n+i] = 1
	}
	det := 1.0
	for k := 0; k < n; k++ {
		p, maxv := k, abs(w[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs(w[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return 0, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				w[p*n+j], w[k*n+j] = w[k*n+j], w[p*n+j]
				dst[p*n+j], dst[k*n+j] = dst[k*n+j], dst[p*n+j]
			}
			det = -det
		}
		piv := w[k*n+k]
		det *= piv
		inv := 1 / piv
		for j := 0; j < n; j++ {
			w[k*n+j] *= inv
			dst[k*n+j] *= inv
		}
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			f := w[i*n+k]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				w[i*n+j] -= float64(f * w[k*n+j])
				dst[i*n+j] -= float64(f * dst[k*n+j])
			}
		}
	}
	return det, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
