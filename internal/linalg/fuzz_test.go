package linalg

import (
	"math"
	"testing"
)

// gaussSolve is an independent reference: plain Gaussian elimination with
// partial pivoting on an augmented copy, sharing no code with LU. It
// returns (x, true) or (nil, false) when it judges the system singular.
func gaussSolve(a *Matrix, b []float64) ([]float64, bool) {
	n := a.Rows
	aug := make([][]float64, n)
	for r := 0; r < n; r++ {
		aug[r] = append(append([]float64(nil), a.Row(r)...), b[r])
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, math.Abs(aug[k][k])
		for r := k + 1; r < n; r++ {
			if v := math.Abs(aug[r][k]); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs == 0 {
			return nil, false
		}
		aug[k], aug[p] = aug[p], aug[k]
		for r := k + 1; r < n; r++ {
			m := aug[r][k] / aug[k][k]
			if m == 0 {
				continue
			}
			for c := k; c <= n; c++ {
				aug[r][c] -= m * aug[k][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := aug[i][n]
		for j := i + 1; j < n; j++ {
			s -= aug[i][j] * x[j]
		}
		x[i] = s / aug[i][i]
	}
	return x, true
}

// FuzzFactorLU differentials FactorLU+Solve against the independent
// Gaussian elimination above on fuzzer-shaped matrices: the two must agree
// on singularity, and when both solve, each solution must satisfy the
// system to a conditioning-scaled residual tolerance. SolveMatrix must
// equal SolveInto column by column bit for bit.
func FuzzFactorLU(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte{})
	f.Add(uint8(1), int64(42), []byte{0x00})
	f.Add(uint8(6), int64(-7), []byte{0xff, 0x01, 0x80, 0x7f})
	f.Add(uint8(4), int64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, nRaw uint8, salt int64, raw []byte) {
		n := int(nRaw)%8 + 1
		a := NewMatrix(n, n)
		b := make([]float64, n)
		// Deterministic expansion of the fuzz bytes into matrix entries:
		// each byte maps to [-12.8, 12.7], missing bytes fall back to a
		// salt-seeded linear congruence. Small integers over a modest range
		// keep exact-zero pivots and near-singular cases reachable.
		s := uint64(salt)*2654435761 + 1
		val := func(k int) float64 {
			if k < len(raw) {
				return (float64(raw[k]) - 128) / 10
			}
			s = s*6364136223846793005 + 1442695040888963407
			return (float64(s>>56) - 128) / 10
		}
		k := 0
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				a.Set(r, c, val(k))
				k++
			}
		}
		for i := range b {
			b[i] = val(k)
			k++
		}
		maxAbs := 0.0
		for _, v := range a.Data {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
			}
		}

		fac, luErr := FactorLU(a)
		_, refOK := gaussSolve(a, b)
		if (luErr == nil) != refOK {
			// Both pivot on the column max, so exact-zero singularity must
			// agree bit-for-bit.
			t.Fatalf("singularity disagreement: FactorLU err=%v, reference ok=%v\nmatrix=%v", luErr, refOK, a.Data)
		}
		if luErr != nil {
			return
		}
		x, err := fac.Solve(b)
		if err != nil {
			t.Fatalf("Solve after successful FactorLU: %v", err)
		}
		// Residual check with a conditioning allowance: random small-integer
		// matrices can be arbitrarily ill-conditioned, so scale the
		// tolerance by the solution magnitude the system produced.
		xMag := 1.0
		for _, v := range x {
			if av := math.Abs(v); av > xMag {
				xMag = av
			}
		}
		tol := 1e-8 * (1 + maxAbs) * xMag * float64(n)
		got := a.MulVec(x)
		for i := range b {
			if d := math.Abs(got[i] - b[i]); d > tol || math.IsNaN(d) {
				t.Fatalf("residual %g at row %d exceeds %g\nA=%v\nb=%v\nx=%v", d, i, tol, a.Data, b, x)
			}
		}

		// SolveMatrix skips each column's leading +0 entries; it must equal
		// a full SolveInto per column bit for bit. Column c is b with its
		// first c entries zeroed (every other one as −0) plus the identity.
		rhs := NewMatrix(n, 2*n)
		for c := 0; c < n; c++ {
			for r := c; r < n; r++ {
				rhs.Set(r, c, b[r])
			}
			for r := 0; r < c; r += 2 {
				rhs.Set(r, c, math.Copysign(0, -1))
			}
			rhs.Set(c, n+c, 1)
		}
		xs, err := fac.SolveMatrix(rhs)
		if err != nil {
			t.Fatalf("SolveMatrix after successful FactorLU: %v", err)
		}
		col, want := make([]float64, n), make([]float64, n)
		for c := 0; c < rhs.Cols; c++ {
			for r := range col {
				col[r] = rhs.At(r, c)
			}
			if err := fac.SolveInto(want, col); err != nil {
				t.Fatalf("SolveInto after successful FactorLU: %v", err)
			}
			for r, w := range want {
				if g := xs.At(r, c); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("SolveMatrix column %d row %d = %v, SolveInto %v\nA=%v\nB=%v", c, r, g, w, a.Data, rhs.Data)
				}
			}
		}
	})
}
