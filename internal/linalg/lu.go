package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U, stored
// compactly in lu with the permutation in piv. The zero value is ready for
// Factor, which reuses the receiver's buffers across refactorizations, so
// repeated factorizations of same-sized matrices stay allocation-free after
// warm-up.
type LU struct {
	n   int
	lu  *Matrix
	piv []int
	tmp []float64 // scratch for the transpose solve's permuted intermediate
}

// Factor (re)computes the LU factorization of the square matrix a with
// partial pivoting, reusing the receiver's buffers when their capacity
// allows. The input matrix is not modified. On error the receiver must not
// be used for solves until a later Factor succeeds. The elimination is
// bit-identical to FactorLU's.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Factor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.lu == nil || cap(f.lu.Data) < n*n {
		f.lu = &Matrix{Rows: n, Cols: n, Data: make([]float64, n*n)}
	} else {
		f.lu.Rows, f.lu.Cols = n, n
		f.lu.Data = f.lu.Data[:n*n]
	}
	copy(f.lu.Data, a.Data[:n*n])
	if cap(f.piv) >= n {
		f.piv = f.piv[:n]
	} else {
		f.piv = make([]int, n)
	}
	f.n = n
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest absolute value in column k at or below the diagonal.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for r := k + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, k)); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs == 0 {
			return ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for c := range rk {
				rk[c], rp[c] = rp[c], rk[c]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for r := k + 1; r < n; r++ {
			m := lu.At(r, k) / pivot
			lu.Set(r, k, m)
			if m == 0 {
				continue
			}
			rr, rk := lu.Row(r), lu.Row(k)
			for c := k + 1; c < n; c++ {
				rr[c] -= m * rk[c]
			}
		}
	}
	return nil
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting. The input matrix is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// SolveInto solves A·x = b into dst without allocating. dst must have
// length n and must not alias b (the permutation pass reads b after dst has
// been partially written).
func (f *LU) SolveInto(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("linalg: SolveInto length mismatch: dst %d, b %d, want %d", len(dst), len(b), f.n)
	}
	if f.n > 0 && &dst[0] == &b[0] {
		return errors.New("linalg: SolveInto dst must not alias b")
	}
	// Apply the permutation, then forward-substitute L (unit diagonal).
	for i := 0; i < f.n; i++ {
		dst[i] = b[f.piv[i]]
	}
	for i := 0; i < f.n; i++ {
		row := f.lu.Row(i)
		s := dst[i]
		for j := 0; j < i; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s
	}
	// Back-substitute U.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := dst[i]
		for j := i + 1; j < f.n; j++ {
			s -= row[j] * dst[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		dst[i] = s / d
	}
	return nil
}

// SolveTransposeInto solves Aᵀ·x = b into dst without allocating (beyond a
// once-grown internal scratch). With P·A = L·U this is Uᵀ·Lᵀ·P·x = b:
// forward-substitute Uᵀ, back-substitute Lᵀ, then undo the permutation.
// dst may alias b.
func (f *LU) SolveTransposeInto(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("linalg: SolveTransposeInto length mismatch: dst %d, b %d, want %d", len(dst), len(b), f.n)
	}
	if cap(f.tmp) >= f.n {
		f.tmp = f.tmp[:f.n]
	} else {
		f.tmp = make([]float64, f.n)
	}
	w := f.tmp
	// Uᵀ·z = b: Uᵀ is lower triangular with U's diagonal.
	for i := 0; i < f.n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(j, i) * w[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		w[i] = s / d
	}
	// Lᵀ·w = z: Lᵀ is unit upper triangular.
	for i := f.n - 1; i >= 0; i-- {
		s := w[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.lu.At(j, i) * w[j]
		}
		w[i] = s
	}
	// P·x = w ⇒ x[piv[i]] = w[i].
	for i := 0; i < f.n; i++ {
		dst[f.piv[i]] = w[i]
	}
	return nil
}

// Solve solves A·x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: Solve length mismatch: %d want %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveMatrix solves A·X = B column by column and returns X.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.Rows != f.n {
		return nil, fmt.Errorf("linalg: SolveMatrix shape mismatch: %d rows want %d", b.Rows, f.n)
	}
	out := NewMatrix(f.n, b.Cols)
	col := make([]float64, f.n)
	x := make([]float64, f.n)
	for c := 0; c < b.Cols; c++ {
		for r := 0; r < f.n; r++ {
			col[r] = b.At(r, c)
		}
		if err := f.SolveInto(x, col); err != nil {
			return nil, err
		}
		for r := 0; r < f.n; r++ {
			out.Set(r, c, x[r])
		}
	}
	return out, nil
}

// Inverse returns A⁻¹ computed from the factorization.
func (f *LU) Inverse() (*Matrix, error) {
	return f.SolveMatrix(Identity(f.n))
}

// Solve is a convenience wrapper that factors a and solves a·x = b once.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
