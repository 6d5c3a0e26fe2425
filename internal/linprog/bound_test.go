package linprog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDualBoundWeakDuality checks the bound primitive against the textbook
// oracle on the differential generator's LPs. For any multipliers — of
// either sign, since DualBound clamps them — the bound must not cut off the
// oracle optimum, an unbounded problem must bound at infinity, and the
// solver's own duals must reproduce the optimum (strong duality) when every
// variable is boxed.
func TestDualBoundWeakDuality(t *testing.T) {
	weak, strong := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		p := randomLP(seed)
		want := oracleSolve(randomLP(seed))
		if want.status != Optimal && want.status != Unbounded {
			continue
		}
		weak++
		s := 1.0
		if p.sense == Minimize {
			s = -1
		}
		d := make([]float64, p.NumVars())
		rng := rand.New(rand.NewSource(seed))
		y := make([]float64, p.NumRows())
		for draw := 0; draw < 20; draw++ {
			for r := range y {
				y[r] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-2))
			}
			g, margin := p.DualBound(y, d)
			tag := fmt.Sprintf("seed %d draw %d", seed, draw)
			if want.status == Unbounded {
				if !math.IsInf(s*g, 1) {
					t.Fatalf("%s: unbounded problem bounded at %v", tag, g)
				}
				continue
			}
			if s*(g-want.objective)+margin < -1e-9*(1+math.Abs(want.objective)) {
				t.Fatalf("%s: bound %v ± %v cuts off the optimum %v", tag, g, margin, want.objective)
			}
		}
		if want.status != Optimal || hasInfiniteBound(p) {
			// A reduced cost that rounds to a hair off zero against an
			// infinite bound makes the bound infinite: valid, not tight.
			continue
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		strong++
		g, margin := p.DualBound(sol.AppendDuals(nil), d)
		if math.Abs(g-want.objective) > 1e-6*(1+math.Abs(want.objective)) {
			t.Fatalf("seed %d: bound at the optimal duals %v, optimum %v", seed, g, want.objective)
		}
		if margin < 0 || math.IsNaN(margin) {
			t.Fatalf("seed %d: margin %v", seed, margin)
		}
	}
	if weak < 200 || strong < 30 {
		t.Fatalf("only %d bounded and %d boxed optimal instances checked — generator drifted", weak, strong)
	}
}

func hasInfiniteBound(p *Problem) bool {
	for j := range p.lo {
		if math.IsInf(p.lo[j], 0) || math.IsInf(p.hi[j], 0) {
			return true
		}
	}
	return false
}
