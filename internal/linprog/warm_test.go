package linprog

import (
	"math"
	"math/rand"
	"testing"
)

// TestAxpyNegMatchesGeneric pins the AVX2 kernel (when present) to the
// scalar loop bit-for-bit across every tail length, including the odd
// remainders that exercise the VEX-encoded scalar tail.
func TestAxpyNegMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 67; n++ {
		x := make([]float64, n)
		y1 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			if rng.Intn(5) == 0 {
				x[i] = 0
			}
			y1[i] = rng.NormFloat64()
		}
		y2 := append([]float64(nil), y1...)
		f := rng.NormFloat64()
		axpyNeg(f, x, y1)
		axpyNegGeneric(f, x, y2)
		for i := range y1 {
			if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
				t.Fatalf("n=%d i=%d: axpyNeg %x, generic %x", n, i,
					math.Float64bits(y1[i]), math.Float64bits(y2[i]))
			}
		}
	}
}

// smallLP is a 3-row, 3-var bounded LP with only slack rows (no
// artificials): max 3x+2y+z s.t. x+y ≤ 4, y+z ≤ 3, x+z ≤ 5, vars in [0,3].
func smallLP() *Problem {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 3, 3)
	y := p.AddVar("y", 0, 3, 2)
	z := p.AddVar("z", 0, 3, 1)
	p.AddRow(LE, 4, Term{x, 1}, Term{y, 1})
	p.AddRow(LE, 3, Term{y, 1}, Term{z, 1})
	p.AddRow(LE, 5, Term{x, 1}, Term{z, 1})
	return p
}

// bigLP is a larger LP of a different shape with GE rows, so solving it
// forces artificial variables and a Phase-1/Phase-2 run.
func bigLP() *Problem {
	p := NewProblem(Minimize)
	rng := rand.New(rand.NewSource(7))
	const nv, nr = 23, 11
	vars := make([]int, nv)
	for j := range vars {
		vars[j] = p.AddVar("", 0, 10, 1+rng.Float64())
	}
	for r := 0; r < nr; r++ {
		terms := make([]Term, 0, 6)
		for k := 0; k < 6; k++ {
			terms = append(terms, Term{vars[(r*5+k*3)%nv], 0.5 + rng.Float64()})
		}
		if r%2 == 0 {
			p.AddRow(GE, 2+rng.Float64(), terms...)
		} else {
			p.AddRow(LE, 20+rng.Float64(), terms...)
		}
	}
	return p
}

func solutionBitsEqual(t *testing.T, tag string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", tag, got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v != %v", tag, got.Objective, want.Objective)
	}
	for j := 0; j < len(want.x); j++ {
		if math.Float64bits(got.Value(j)) != math.Float64bits(want.Value(j)) {
			t.Fatalf("%s: x[%d] = %v, want %v", tag, j, got.Value(j), want.Value(j))
		}
	}
}

// TestWorkspaceCrossShapeReuse alternates two LPs of different shapes (one
// slack-only, one with artificials) through a single Workspace and checks
// every solve is bit-identical to a fresh-workspace solve: stale tableau
// contents, extents, and pricing signs from the other shape
// must never leak into a solve.
func TestWorkspaceCrossShapeReuse(t *testing.T) {
	pa, pb := smallLP(), bigLP()
	refA, err := pa.Solve()
	if err != nil {
		t.Fatal(err)
	}
	refB, err := pb.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ws := &Workspace{}
	for round := 0; round < 3; round++ {
		got, err := pa.SolveWith(ws)
		if err != nil {
			t.Fatalf("round %d small: %v", round, err)
		}
		solutionBitsEqual(t, "small", got, refA)
		got, err = pb.SolveWith(ws)
		if err != nil {
			t.Fatalf("round %d big: %v", round, err)
		}
		solutionBitsEqual(t, "big", got, refB)
	}
	if ws.Stats.Solves != 6 {
		t.Fatalf("Stats.Solves = %d, want 6", ws.Stats.Solves)
	}
}

// TestWarmSolveIntoZeroAllocs checks the epoch hot path: once a Workspace
// has solved a shape, re-solves through SolveInto — including RHS patches,
// as the temperature search does — allocate nothing.
func TestWarmSolveIntoZeroAllocs(t *testing.T) {
	p := smallLP()
	ws := &Workspace{}
	if _, err := p.SolveInto(nil, ws); err != nil {
		t.Fatal(err)
	}
	rhs := []float64{4, 3.5}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		p.SetRHS(0, rhs[i%2])
		i++
		sol, err := p.SolveInto(nil, ws)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("warm solve: %v (%v)", err, sol.Status)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SolveInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestVerificationSweepResumesOnStaleD is the regression test for the
// premature-optimality bug: a reduced-cost row that went stale (here,
// zeroed by hand mid-solve) makes pricing report "no eligible column", and
// iterate must NOT declare optimality — the verification sweep has to
// recompute d, find the real entering column, and resume pivoting to the
// true optimum.
func TestVerificationSweepResumesOnStaleD(t *testing.T) {
	p := smallLP()
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}

	ws := &Workspace{}
	st := p.newState(ws)
	st.setPhase2Costs(p)
	if st.nArt != 0 {
		t.Fatalf("fixture grew %d artificials; the test assumes a slack basis", st.nArt)
	}
	// Corrupt the reduced costs: every column now looks priced-out even
	// though the slack basis is far from optimal.
	for j := range st.d {
		st.d[j] = 0
	}
	st.dFresh = false
	status := st.iterate()
	if status != Optimal {
		t.Fatalf("iterate = %v, want Optimal", status)
	}
	if st.stats.SweepResumes < 1 {
		t.Fatalf("SweepResumes = %d, want ≥ 1 (optimality declared off the stale d row)", st.stats.SweepResumes)
	}
	sol, err := p.finish(st, status, ws, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-want.Objective) > 1e-9 {
		t.Fatalf("objective after sweep resume %v, want %v", sol.Objective, want.Objective)
	}
}
