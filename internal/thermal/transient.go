package thermal

import (
	"fmt"
	"math"
)

// Transient models the temperature *evolution* the paper appeals to when
// it separates the two assignment timescales ("temperature evolution in
// the data center is in orders of minutes, while the execution of a task
// is in orders of seconds"). Each thermal unit's outlet temperature
// relaxes toward the instantaneous steady state of the heat-flow model
// with a first-order time constant τ:
//
//	Tout(t+dt) = ss + (Tout(t) − ss)·exp(−dt/τ)
//
// which is exact for piecewise-constant inputs (CRAC outlets and node
// powers). Because the inlet map Tin = A·Tout is linear and the trajectory
// is a convex combination of the initial and steady states, a transition
// between two redline-feasible operating points can never overshoot the
// redlines — the property that makes epoch reassignment thermally safe.
type Transient struct {
	m *Model
	// Tau is the thermal time constant in seconds.
	Tau float64

	tout []float64
}

// NewTransient starts the dynamics at the steady state of the given
// operating point. Tau must be positive.
func NewTransient(m *Model, tau float64, cracOut, pcn []float64) (*Transient, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("thermal: time constant must be positive, got %g", tau)
	}
	return &Transient{
		m:    m,
		Tau:  tau,
		tout: m.OutletTemps(cracOut, pcn),
	}, nil
}

// Step advances the state by dt seconds under the (constant) inputs.
func (tr *Transient) Step(dt float64, cracOut, pcn []float64) {
	if dt < 0 {
		panic(fmt.Sprintf("thermal: negative time step %g", dt))
	}
	ss := tr.m.OutletTemps(cracOut, pcn)
	decay := math.Exp(-dt / tr.Tau)
	for i := range tr.tout {
		tr.tout[i] = ss[i] + (tr.tout[i]-ss[i])*decay
	}
}

// OutletTemps returns the current outlet temperatures (thermal-index
// order, copied).
func (tr *Transient) OutletTemps() []float64 {
	return append([]float64(nil), tr.tout...)
}

// InletTemps returns the current inlet temperatures Tin = A·Tout
// (Equation 5). Each entry A[j][i] = α[i][j]·F_i/F_j is formed from α as
// New forms it and summed in the same order as a dense A·Tout product, so
// no copy of A is kept.
func (tr *Transient) InletTemps() []float64 {
	alpha, flows := tr.m.dc.Alpha, tr.m.flows
	tin := make([]float64, len(tr.tout))
	for j := range tin {
		s := 0.0
		for i, t := range tr.tout {
			s += alpha[i][j] * flows[i] / flows[j] * t
		}
		tin[j] = s
	}
	return tin
}

// RedlineSlack returns the minimum redline slack at the current state.
func (tr *Transient) RedlineSlack() float64 {
	return tr.m.RedlineSlack(tr.InletTemps())
}

// SettlingTime returns how long the state needs to come within eps °C
// (max-norm over outlets) of the steady state of the given inputs,
// assuming they are held constant from now on. It returns 0 when already
// settled.
func (tr *Transient) SettlingTime(cracOut, pcn []float64, eps float64) float64 {
	if eps <= 0 {
		panic(fmt.Sprintf("thermal: eps must be positive, got %g", eps))
	}
	ss := tr.m.OutletTemps(cracOut, pcn)
	maxDev := 0.0
	for i := range ss {
		if d := math.Abs(tr.tout[i] - ss[i]); d > maxDev {
			maxDev = d
		}
	}
	if maxDev <= eps {
		return 0
	}
	return tr.Tau * math.Log(maxDev/eps)
}
