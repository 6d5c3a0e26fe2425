package linprog

import (
	"context"
	"math"
	"testing"
)

// FuzzKnapsackLP cross-checks the simplex against the greedy fractional-
// knapsack optimum on adversarial inputs. The seed corpus runs under
// plain `go test`; `go test -fuzz=FuzzKnapsackLP` explores further.
func FuzzKnapsackLP(f *testing.F) {
	f.Add(int64(1), uint8(3), 5.0)
	f.Add(int64(99), uint8(12), 0.001)
	f.Add(int64(-7), uint8(1), 100.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, budget float64) {
		if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 || budget > 1e6 {
			t.Skip()
		}
		n := int(nRaw)%15 + 1
		rng := newSplitMix(seed)
		c := make([]float64, n)
		u := make([]float64, n)
		p := NewProblem(Maximize)
		terms := make([]Term, n)
		for i := 0; i < n; i++ {
			c[i] = math.Round(rng.next()*1000) / 100
			u[i] = math.Round(rng.next()*500)/100 + 0.01
			v := p.AddVar("", 0, u[i], c[i])
			terms[i] = Term{v, 1}
		}
		p.AddRow(LE, budget, terms...)
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			t.Fatalf("solver failed on feasible knapsack: %v", err)
		}
		want := greedyKnapsackOpt(c, u, budget)
		if math.Abs(sol.Objective-want) > 1e-6*(1+want) {
			t.Fatalf("objective %g, greedy %g (n=%d budget=%g)", sol.Objective, want, n, budget)
		}
	})
}

// splitMix is a tiny deterministic PRNG so fuzz inputs fully determine the
// instance without math/rand's global state.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{uint64(seed)*2654435769 + 1} }

func (r *splitMix) next() float64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z%1_000_000) / 1_000_000
}
