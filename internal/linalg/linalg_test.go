package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At mismatch")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be a deep copy")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVecKnown(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", y)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	c := a.Mul(b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
		}
	}
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{2, -1, 0}, {1, 3, 5}, {0, 0, 1}})
	if got := Identity(3).Mul(a); !matricesClose(got, a, 0) {
		t.Fatal("I·A != A")
	}
	if got := a.Mul(Identity(3)); !matricesClose(got, a, 0) {
		t.Fatal("A·I != A")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %+v", at)
	}
}

func TestSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 1}, {1, 1}})
	c := a.Sub(b)
	if c.At(0, 0) != 0 || c.At(1, 1) != 3 {
		t.Fatalf("Sub wrong: %v", c.Data)
	}
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := a.MulVec(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-10 {
			t.Fatalf("A·x = %v, want %v", got, b)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("FactorLU on singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := FactorLU(a); err == nil {
		t.Fatal("FactorLU accepted a non-square matrix")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesClose(a.Mul(inv), Identity(2), 1e-12) {
		t.Fatalf("A·A⁻¹ != I: %v", a.Mul(inv).Data)
	}
}

func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		sum := 0.0
		for c := 0; c < n; c++ {
			if c == r {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(r, c, v)
			sum += math.Abs(v)
		}
		a.Set(r, r, sum+1+rng.Float64())
	}
	return a
}

// Property: for random diagonally dominant systems, Solve produces a
// residual at numerical noise level.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		got := a.MulVec(x)
		for i := range b {
			if math.Abs(got[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SolveMatrix(I) equals Inverse, and applying it recovers the RHS.
func TestSolveMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		a := randomDiagDominant(rng, n)
		fac, err := FactorLU(a)
		if err != nil {
			return false
		}
		inv, err := fac.Inverse()
		if err != nil {
			return false
		}
		return matricesClose(a.Mul(inv), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// solveColumns is SolveMatrix as one full SolveInto per column.
func solveColumns(t *testing.T, f *LU, b *Matrix) *Matrix {
	t.Helper()
	out := NewMatrix(b.Rows, b.Cols)
	col, x := make([]float64, b.Rows), make([]float64, b.Rows)
	for c := 0; c < b.Cols; c++ {
		for r := range col {
			col[r] = b.At(r, c)
		}
		if err := f.SolveInto(x, col); err != nil {
			t.Fatal(err)
		}
		for r, v := range x {
			out.Set(r, c, v)
		}
	}
	return out
}

// assertBitsEqual fails unless got and want hold the same float64 bits,
// signed zeros included.
func assertBitsEqual(t *testing.T, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("entry (%d, %d) = %v, want %v", i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestSolveMatrixSkipMatchesSolveInto holds SolveMatrix's leading-zero
// skip to full per-column substitutions bit for bit on right-hand sides
// with long zero prefixes, −0 entries and negative multipliers in L.
func TestSolveMatrixSkipMatchesSolveInto(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		f, err := FactorLU(a)
		if err != nil {
			continue
		}
		b := NewMatrix(n, 2*n)
		for c := 0; c < b.Cols; c++ {
			for r := rng.Intn(n); r < n; r++ {
				switch rng.Intn(4) {
				case 0:
					b.Set(r, c, negZero)
				case 1:
					// stays +0
				default:
					b.Set(r, c, rng.NormFloat64())
				}
			}
		}
		got, err := f.SolveMatrix(b)
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, got, solveColumns(t, f, b))
		inv, err := f.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, inv, solveColumns(t, f, Identity(n)))
	}
}

func TestSolveLengthMismatch(t *testing.T) {
	a := Identity(3)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("Solve accepted wrong-length RHS")
	}
}

func BenchmarkLUFactorSolve153(b *testing.B) {
	// 153 = NCRAC + NCN at the paper's scale (3 CRACs + 150 nodes).
	rng := rand.New(rand.NewSource(1))
	a := randomDiagDominant(rng, 153)
	rhs := make([]float64, 153)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FactorLU(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(12) + 1
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		f, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := f.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SolveInto[%d] = %g, Solve = %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveIntoRejectsAliasAndBadLengths(t *testing.T) {
	f, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	if err := f.SolveInto(b, b); err == nil {
		t.Fatal("SolveInto accepted aliased dst")
	}
	if err := f.SolveInto(make([]float64, 2), b); err == nil {
		t.Fatal("SolveInto accepted short dst")
	}
	if err := f.SolveInto(make([]float64, 3), b[:2]); err == nil {
		t.Fatal("SolveInto accepted short b")
	}
}

func TestSolveTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(12) + 1
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		f, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		if err := f.SolveTransposeInto(x, b); err != nil {
			t.Fatal(err)
		}
		// Check Aᵀ·x = b.
		got := a.Transpose().MulVec(x)
		for i := range b {
			if math.Abs(got[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d n=%d: Aᵀx = %v, want %v", trial, n, got, b)
			}
		}
		// dst may alias b: rerun in place and compare.
		inPlace := append([]float64(nil), b...)
		if err := f.SolveTransposeInto(inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if inPlace[i] != x[i] {
				t.Fatalf("trial %d: aliased transpose solve diverged at %d", trial, i)
			}
		}
	}
}

func TestFactorReuseMatchesFactorLU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f LU
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(10) + 1
		a := randomDiagDominant(rng, n)
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		ref, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.lu.Data {
			if f.lu.Data[i] != ref.lu.Data[i] {
				t.Fatalf("trial %d: reused Factor diverged from FactorLU at %d", trial, i)
			}
		}
		for i := range ref.piv {
			if f.piv[i] != ref.piv[i] {
				t.Fatalf("trial %d: pivot permutation diverged at %d", trial, i)
			}
		}
	}
}

func TestFactorSolveIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 16)
	b := make([]float64, 16)
	x := make([]float64, 16)
	for i := range b {
		b[i] = rng.Float64()
	}
	var f LU
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	if err := f.SolveTransposeInto(x, b); err != nil {
		t.Fatal(err) // warm tmp scratch
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveTransposeInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Factor+SolveInto+SolveTransposeInto allocates %v per run, want 0", allocs)
	}
}
