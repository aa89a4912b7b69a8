package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU, Solve and Det are safety code: no binary calls them, but they are
// the independent reference the InverseInto tests check its closed forms
// and its Gauss-Jordan path against.

// LU holds an LU decomposition with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Matrix // packed L (unit lower, implicit diagonal) and U
	piv   []int   // row permutation
	sign  float64 // permutation parity, for Det
	valid bool
}

// DecomposeLU computes the LU decomposition of a square matrix using
// Doolittle's method with partial pivoting.
func DecomposeLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: DecomposeLU on non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxv := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		// Eliminate below the pivot.
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			f := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = f
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= float64(f * lu.data[k*n+j])
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign, valid: true}, nil
}

// Det returns the determinant of the decomposed matrix.
func (d *LU) Det() float64 {
	n := d.lu.rows
	det := d.sign
	for i := 0; i < n; i++ {
		det *= d.lu.data[i*n+i]
	}
	return det
}

// Solve solves A*X = B for X, where A is the decomposed matrix.
// B may have multiple right-hand-side columns.
func (d *LU) Solve(b *Matrix) (*Matrix, error) {
	n := d.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: LU.Solve rhs has %d rows, want %d", b.rows, n))
	}
	nrhs := b.cols
	// Apply permutation.
	x := New(n, nrhs)
	for i := 0; i < n; i++ {
		copy(x.data[i*nrhs:(i+1)*nrhs], b.data[d.piv[i]*nrhs:(d.piv[i]+1)*nrhs])
	}
	// Forward substitution with unit lower triangular L.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := d.lu.data[i*n+k]
			if f == 0 {
				continue
			}
			for j := 0; j < nrhs; j++ {
				x.data[i*nrhs+j] -= float64(f * x.data[k*nrhs+j])
			}
		}
	}
	// Back substitution with U.
	for k := n - 1; k >= 0; k-- {
		pivVal := d.lu.data[k*n+k]
		if pivVal == 0 {
			return nil, ErrSingular
		}
		for j := 0; j < nrhs; j++ {
			x.data[k*nrhs+j] /= pivVal
		}
		for i := 0; i < k; i++ {
			f := d.lu.data[i*n+k]
			if f == 0 {
				continue
			}
			for j := 0; j < nrhs; j++ {
				x.data[i*nrhs+j] -= float64(f * x.data[k*nrhs+j])
			}
		}
	}
	return x, nil
}

// Solve solves the linear system a*x = b.
func Solve(a, b *Matrix) (*Matrix, error) {
	lu, err := DecomposeLU(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}

// Det returns the determinant of a square matrix (0 if singular).
func Det(a *Matrix) float64 {
	lu, err := DecomposeLU(a)
	if err != nil {
		return 0
	}
	return lu.Det()
}
