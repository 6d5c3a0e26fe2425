package linprog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// transportLP builds a random transportation LP shaped like the Appendix-B
// α LP: supply rows Σ_j x_ij = s_i and demand rows Σ_i x_ij = d_j with
// Σs = Σd, so one equality row is redundant and its artificial can stay
// basic through phase 2. Some rows are stated negated (−Σ x = −s), which
// newState flips back (σ = −1); some are duplicated verbatim; a few range
// rows cap partial sums.
func transportLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	ns, nd := 2+rng.Intn(7), 2+rng.Intn(7)
	supply := make([]float64, ns)
	demand := make([]float64, nd)
	total := 0.0
	for i := range supply {
		supply[i] = float64(rng.Intn(11))
		total += supply[i]
	}
	for left := total; left > 0; left-- {
		demand[rng.Intn(nd)]++
	}
	x := make([][]int, ns)
	for i := range x {
		x[i] = make([]int, nd)
		for j := range x[i] {
			hi := Inf
			if rng.Intn(4) == 0 {
				hi = float64(1 + rng.Intn(6))
			}
			x[i][j] = p.AddVar("", 0, hi, rng.Float64()*10-2)
		}
	}
	addEQ := func(rhs float64, vars []int) {
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		terms := make([]Term, len(vars))
		for k, v := range vars {
			terms[k] = Term{v, sign}
		}
		p.AddRow(EQ, sign*rhs, terms...)
		if rng.Intn(6) == 0 {
			p.AddRow(EQ, sign*rhs, terms...)
		}
	}
	for i := range supply {
		addEQ(supply[i], x[i])
	}
	col := make([]int, ns)
	for j := range demand {
		for i := range x {
			col[i] = x[i][j]
		}
		addEQ(demand[j], col)
	}
	for k := rng.Intn(3); k > 0; k-- {
		i, j := rng.Intn(ns), rng.Intn(nd)
		lo := float64(rng.Intn(3))
		p.AddRangeRow(lo, lo+float64(1+rng.Intn(8)), Term{x[i][j], 1}, Term{x[i][(j+1)%nd], 1})
	}
	return p
}

// kernelRun is everything a solve reports that the pivot kernel's switches
// must not change.
type kernelRun struct {
	status     Status
	iterations int
	pivots     int64
	objective  uint64
	x, duals   []uint64
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestKernelBitIdentical solves the fixture zoo, the differential
// generator's LPs and transportation LPs with flipped and redundant
// equality rows under every combination of the pivot kernel's switches
// (eliminations split across two goroutines at any size; dead columns
// skipped or eliminated) and requires bit-identical x, duals, objective,
// iteration and pivot counts. make ci runs it at -cpu 1,2,4.
func TestKernelBitIdentical(t *testing.T) {
	type lp struct {
		name  string
		build func() *Problem
	}
	var lps []lp
	for name, build := range fixtureLPs() {
		lps = append(lps, lp{name, build})
	}
	for seed := int64(0); seed < 300; seed++ {
		lps = append(lps, lp{fmt.Sprintf("random-%d", seed), func() *Problem { return randomLP(seed) }})
	}
	for seed := int64(0); seed < 200; seed++ {
		lps = append(lps, lp{fmt.Sprintf("transport-%d", seed), func() *Problem { return transportLP(seed) }})
	}

	solve := func(split, skipDead bool) (runs []kernelRun, flipped, redundant int) {
		defer SetKernelSwitches(split, skipDead)()
		ws := &Workspace{} // shared, so buffer reuse across shapes is covered too
		for _, c := range lps {
			pivots0 := ws.Stats.Pivots
			sol, _ := c.build().SolveWith(ws) // a failed solve is compared by its status
			run := kernelRun{status: sol.Status, iterations: sol.Iterations, pivots: ws.Stats.Pivots - pivots0}
			if sol.Status == Optimal {
				run.objective = math.Float64bits(sol.Objective)
				run.x, run.duals = bitsOf(sol.x), bitsOf(sol.duals)
				for _, b := range ws.st.basis {
					if b >= ws.st.nCols {
						redundant++ // an artificial stayed basic through phase 2
						break
					}
				}
			}
			for _, s := range ws.st.artSign {
				if s < 0 {
					flipped++
					break
				}
			}
			runs = append(runs, run)
		}
		return runs, flipped, redundant
	}

	ref, flipped, redundant := solve(false, false)
	if flipped < 50 || redundant < 50 {
		t.Fatalf("coverage: %d LPs with flipped rows, %d with a basic artificial in phase 2", flipped, redundant)
	}
	for _, sw := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		got, _, _ := solve(sw[0], sw[1])
		for k, c := range lps {
			w, g := ref[k], got[k]
			tag := fmt.Sprintf("%s (split %v, skip dead %v)", c.name, sw[0], sw[1])
			if g.status != w.status || g.iterations != w.iterations || g.pivots != w.pivots || g.objective != w.objective {
				t.Fatalf("%s: status %v, %d iterations, %d pivots, objective %x; want %v, %d, %d, %x",
					tag, g.status, g.iterations, g.pivots, g.objective, w.status, w.iterations, w.pivots, w.objective)
			}
			for j := range w.x {
				if g.x[j] != w.x[j] {
					t.Fatalf("%s: x[%d] = %x, want %x", tag, j, g.x[j], w.x[j])
				}
			}
			for i := range w.duals {
				if g.duals[i] != w.duals[i] {
					t.Fatalf("%s: dual %d = %x, want %x", tag, i, g.duals[i], w.duals[i])
				}
			}
		}
	}
}

// TestWarmEqualityResolveZeroAllocs pins the dead-column bookkeeping to the
// workspace: a warm re-solve of an LP with flipped and redundant equality
// rows allocates nothing.
func TestWarmEqualityResolveZeroAllocs(t *testing.T) {
	p := transportLP(3)
	ws := &Workspace{}
	if _, err := p.SolveInto(nil, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.SolveInto(nil, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SolveInto allocates %.1f objects/op, want 0", allocs)
	}
}
