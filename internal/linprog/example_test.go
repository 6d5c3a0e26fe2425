package linprog_test

import (
	"context"
	"fmt"

	"thermaldc/internal/linprog"
)

// Example solves a small production-planning LP and reads the shadow
// price of the binding resource row.
func Example() {
	p := linprog.NewProblem(linprog.Maximize)
	x := p.AddVar("x", 0, linprog.Inf, 3)
	y := p.AddVar("y", 0, linprog.Inf, 5)
	p.AddRow(linprog.LE, 4, linprog.Term{Var: x, Coef: 1})
	p.AddRow(linprog.LE, 12, linprog.Term{Var: y, Coef: 2})
	p.AddRow(linprog.LE, 18, linprog.Term{Var: x, Coef: 3}, linprog.Term{Var: y, Coef: 2})
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("objective %g at (%g, %g)\n", sol.Objective, sol.Value(x), sol.Value(y))
	fmt.Printf("shadow price of row 2: %g\n", sol.Dual(2))
	// Output:
	// objective 36 at (2, 6)
	// shadow price of row 2: 1
}

// Example_infeasible shows the error contract for infeasible programs.
func Example_infeasible() {
	p := linprog.NewProblem(linprog.Minimize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddRow(linprog.GE, 5, linprog.Term{Var: x, Coef: 1})
	sol, err := p.Solve(context.Background(), nil)
	fmt.Println(sol.Status, err != nil)
	// Output:
	// infeasible true
}
