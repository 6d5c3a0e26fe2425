// Package thermal implements the paper's Section-IV thermal model, built on
// the Abstract Heat Flow Model of Tang et al. [29]: inlet temperatures are
// a linear mix of outlet temperatures, Tin = A·Tout (Equation 5), with
// A[j][i] = α[i][j]·F_i/F_j derived from the cross-interference matrix α
// and the air flow rates F. Node outlets follow Equation 4
// (Tout = Tin + PCN/(ρ·Cp·F)) and CRAC outlets are control inputs.
//
// Substituting Equation 4 into Equation 5 gives a linear fixed point which
// this package solves symbolically once per data center: one LU
// factorization yields affine maps
//
//	Tin = TinFromCRAC·TcracOut + G·PCN
//
// whose rows are exactly the thermal constraint rows of every LP in the
// paper (Stage 1, Equation 21, Equation 17), and whose CRAC-inlet rows make
// CRAC power (Equation 3) linear in node power for fixed outlet
// temperatures.
package thermal

import (
	"fmt"
	"math"

	"thermaldc/internal/linalg"
	"thermaldc/internal/model"
	"thermaldc/internal/power"
)

// Model holds the precomputed affine thermal maps for one data center.
type Model struct {
	dc *model.DataCenter

	// a is the heat-distribution matrix of Equation 5: Tin = a·Tout.
	a *linalg.Matrix

	// outFromCRAC (n×NCRAC) and outFromPower (n×NCN) give
	// Tout = outFromCRAC·TcracOut + outFromPower·PCN.
	outFromCRAC  *linalg.Matrix
	outFromPower *linalg.Matrix

	// tinFromCRAC (n×NCRAC) and g (n×NCN) give
	// Tin = tinFromCRAC·TcracOut + g·PCN.
	tinFromCRAC *linalg.Matrix
	g           *linalg.Matrix

	// gLo and gHi bound row t's nonzero band: every entry of g's row t
	// outside columns [gLo[t], gHi[t]) is an exact zero (an all-zero row
	// has an empty band). A zoned fleet's G is block-diagonal, so G·PCN
	// over each row's band costs its zone's nodes only.
	gLo, gHi []int32

	// flows caches dc.Flows() — invariant after construction and needed on
	// every CRAC-power evaluation in the temperature-search hot path.
	flows []float64
}

// New builds the thermal model for dc. It returns an error when the
// recirculation pattern is degenerate (air never reaching a CRAC would
// make the fixed point singular — physically impossible in a data center
// with positive exit coefficients).
func New(dc *model.DataCenter) (*Model, error) {
	n := dc.NumThermal()
	ncrac := dc.NCRAC()
	flows := dc.Flows()

	// A[j][i] = α[i][j]·F_i / F_j  (row j: inlet of unit j).
	a := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		row := a.Row(j)
		for i := 0; i < n; i++ {
			row[i] = dc.Alpha[i][j] * flows[i] / flows[j]
		}
	}

	// Fixed point: Tout = S·A·Tout + S·(c ∘ PCN)_ext + (I−S)·TcracOut_ext,
	// where S selects node rows. Build M = I − S·A and factor it.
	m := linalg.Identity(n)
	for t := ncrac; t < n; t++ {
		mrow := m.Row(t)
		arow := a.Row(t)
		for i := 0; i < n; i++ {
			mrow[i] -= arow[i]
		}
	}
	lu, err := linalg.FactorLU(m)
	if err != nil {
		return nil, fmt.Errorf("thermal: heat-flow fixed point is singular (air recirculation never reaches a CRAC): %w", err)
	}

	// Tout sensitivities: solve M·X = E for the CRAC-selector and
	// power-injection right-hand sides.
	eCRAC := linalg.NewMatrix(n, ncrac)
	for i := 0; i < ncrac; i++ {
		eCRAC.Set(i, i, 1)
	}
	ePow := linalg.NewMatrix(n, dc.NCN())
	for j := 0; j < dc.NCN(); j++ {
		t := ncrac + j
		ePow.Set(t, j, 1/(power.RhoCp*flows[t]))
	}
	outFromCRAC, err := lu.SolveMatrix(eCRAC)
	if err != nil {
		return nil, fmt.Errorf("thermal: solving CRAC sensitivity: %w", err)
	}
	outFromPower, err := lu.SolveMatrix(ePow)
	if err != nil {
		return nil, fmt.Errorf("thermal: solving power sensitivity: %w", err)
	}

	g := a.Mul(outFromPower)
	gLo, gHi := rowBands(g)
	return &Model{
		dc:           dc,
		a:            a,
		outFromCRAC:  outFromCRAC,
		outFromPower: outFromPower,
		tinFromCRAC:  a.Mul(outFromCRAC),
		g:            g,
		gLo:          gLo,
		gHi:          gHi,
		flows:        flows,
	}, nil
}

// rowBands returns, for each row of m, the first nonzero column and one
// past the last (both 0 for an all-zero row).
func rowBands(m *linalg.Matrix) (lo, hi []int32) {
	lo = make([]int32, m.Rows)
	hi = make([]int32, m.Rows)
	for r := range lo {
		row := m.Row(r)
		first, last := 0, len(row)
		for first < last && row[first] == 0 {
			first++
		}
		for last > first && row[last-1] == 0 {
			last--
		}
		if first == last {
			first, last = 0, 0
		}
		lo[r], hi[r] = int32(first), int32(last)
	}
	return lo, hi
}

// mulGInto computes G·pcn into dst (reused when capacity allows), summing
// each row over its nonzero band only, in column order. Every product
// skipped is an exact ±0 for finite pcn, and a sum that starts at +0
// never becomes −0 under round-to-nearest, so adding ±0 changes nothing:
// the result is bit-identical to the dense product.
func (m *Model) mulGInto(pcn, dst []float64) []float64 {
	if cap(dst) >= m.g.Rows {
		dst = dst[:m.g.Rows]
	} else {
		dst = make([]float64, m.g.Rows)
	}
	for r := range dst {
		lo, hi := m.gLo[r], m.gHi[r]
		row := m.g.Row(r)[lo:hi]
		x := pcn[lo:hi]
		s := 0.0
		for c, v := range row {
			s += v * x[c]
		}
		dst[r] = s
	}
	return dst
}

// A returns the heat-distribution matrix of Equation 5 (read-only).
func (m *Model) A() *linalg.Matrix { return m.a }

// PowerSensitivity returns G with Tin = TinBase(cracOut) + G·PCN. Row t is
// a thermal unit in thermal-index order; column j is compute node j. All
// entries are ≥ 0: more node power can never cool an inlet.
func (m *Model) PowerSensitivity() *linalg.Matrix { return m.g }

// InletBase returns the inlet temperatures with zero node power:
// tinFromCRAC·cracOut.
func (m *Model) InletBase(cracOut []float64) []float64 {
	return m.InletBaseInto(cracOut, nil)
}

// InletBaseInto is InletBase writing into dst (reused when capacity
// allows). It lets temperature-search hot loops evaluate thousands of
// candidate outlet vectors without allocating.
func (m *Model) InletBaseInto(cracOut, dst []float64) []float64 {
	m.checkCRACLen(cracOut)
	return m.tinFromCRAC.MulVecInto(cracOut, dst)
}

// InletTemps returns all inlet temperatures (thermal-index order) for the
// given CRAC outlet temperatures and node powers PCN (kW, including base
// power). The G·PCN term sums each row of G over its nonzero band only;
// for finite PCN that equals the dense product bit for bit.
func (m *Model) InletTemps(cracOut, pcn []float64) []float64 {
	m.checkCRACLen(cracOut)
	m.checkNodeLen(pcn)
	tin := m.tinFromCRAC.MulVec(cracOut)
	gp := m.mulGInto(pcn, nil)
	for i := range tin {
		tin[i] += gp[i]
	}
	return tin
}

// InletTempsInto is InletTemps writing into dst, using gp as the scratch
// for the G·PCN product; both are reused when capacity allows and the
// (possibly grown) scratch is returned for the caller to keep. The
// computation order matches InletTemps exactly, so the temperatures are
// bit-identical.
func (m *Model) InletTempsInto(cracOut, pcn, dst, gp []float64) (tin, gpOut []float64) {
	m.checkCRACLen(cracOut)
	m.checkNodeLen(pcn)
	tin = m.tinFromCRAC.MulVecInto(cracOut, dst)
	gp = m.mulGInto(pcn, gp)
	for i := range tin {
		tin[i] += gp[i]
	}
	return tin, gp
}

// OutletTemps returns all outlet temperatures. CRAC rows reproduce the
// requested outlets; node rows satisfy Equation 4.
func (m *Model) OutletTemps(cracOut, pcn []float64) []float64 {
	m.checkCRACLen(cracOut)
	m.checkNodeLen(pcn)
	tout := m.outFromCRAC.MulVec(cracOut)
	gp := m.outFromPower.MulVec(pcn)
	for i := range tout {
		tout[i] += gp[i]
	}
	return tout
}

// RedlineSlack returns min over thermal units of (redline − Tin); a
// negative value means some redline constraint (Equation 6) is violated by
// that many °C.
func (m *Model) RedlineSlack(tin []float64) float64 {
	redline := m.dc.Redline()
	slack := math.Inf(1)
	for i := range tin {
		if s := redline[i] - tin[i]; s < slack {
			slack = s
		}
	}
	return slack
}

// CRACPowers returns each CRAC's power (Equation 3) for the given outlet
// temperatures and node powers, applying the exact max(0,·) rule.
func (m *Model) CRACPowers(cracOut, pcn []float64) []float64 {
	tin := m.InletTemps(cracOut, pcn)
	flows := m.flows
	out := make([]float64, m.dc.NCRAC())
	for i := range out {
		out[i] = power.CRACPower(flows[i], tin[i], cracOut[i])
	}
	return out
}

// CRACPowersInto is CRACPowers for a precomputed inlet-temperature vector
// (e.g. from InletTempsInto), writing into dst. Each CRAC's power is the
// same expression CRACPowers evaluates, so results are bit-identical.
func (m *Model) CRACPowersInto(cracOut, tin, dst []float64) []float64 {
	m.checkCRACLen(cracOut)
	flows := m.flows
	n := m.dc.NCRAC()
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = power.CRACPower(flows[i], tin[i], cracOut[i])
	}
	return dst
}

// TotalPower returns compute power plus exact CRAC power (the left side of
// the paper's constraint 4) for the given CRAC outlets and node powers.
func (m *Model) TotalPower(cracOut, pcn []float64) float64 {
	total := 0.0
	for _, p := range pcn {
		total += p
	}
	for _, p := range m.CRACPowers(cracOut, pcn) {
		total += p
	}
	return total
}

// LinearCRACPower describes CRAC i's power as an affine function of node
// powers for fixed outlet temperatures: P ≈ Const + Σ_j Coef[j]·PCN_j.
// The linearization drops Equation 3's max(0,·); callers must verify final
// solutions with the exact CRACPowers (the two agree whenever every CRAC
// inlet is warmer than its outlet, the normal operating regime of an
// oversubscribed data center).
type LinearCRACPower struct {
	Const float64
	Coef  []float64
}

// LinearizeCRACPower returns the affine CRAC power model for the given
// outlet temperatures, used to keep the paper's constraint 4 linear inside
// the Stage-1 and Equation-21 LPs.
func (m *Model) LinearizeCRACPower(cracOut []float64) []LinearCRACPower {
	return m.LinearizeCRACPowerInto(cracOut, m.InletBase(cracOut), nil)
}

// LinearizeCRACPowerInto is LinearizeCRACPower taking the caller's
// precomputed InletBase(cracOut) vector and reusing buf (including each
// entry's Coef slice) when it has the right shape. Incremental Stage-1
// solvers call this once per search candidate, so the reuse removes a
// NCRAC×NCN allocation from the hot path.
func (m *Model) LinearizeCRACPowerInto(cracOut, inletBase []float64, buf []LinearCRACPower) []LinearCRACPower {
	m.checkCRACLen(cracOut)
	ncrac, ncn := m.dc.NCRAC(), m.dc.NCN()
	flows := m.flows
	out := buf
	if cap(out) >= ncrac {
		out = out[:ncrac]
	} else {
		out = make([]LinearCRACPower, ncrac)
	}
	for i := range out {
		k := power.RhoCp * flows[i] / power.CoP(cracOut[i])
		coef := out[i].Coef
		if cap(coef) >= ncn {
			coef = coef[:ncn]
		} else {
			coef = make([]float64, ncn)
		}
		for j := range coef {
			coef[j] = k * m.g.At(i, j)
		}
		out[i] = LinearCRACPower{
			Const: k * (inletBase[i] - cracOut[i]),
			Coef:  coef,
		}
	}
	return out
}

func (m *Model) checkCRACLen(v []float64) {
	if len(v) != m.dc.NCRAC() {
		panic(fmt.Sprintf("thermal: got %d CRAC outlet temps, want %d", len(v), m.dc.NCRAC()))
	}
}

func (m *Model) checkNodeLen(v []float64) {
	if len(v) != m.dc.NCN() {
		panic(fmt.Sprintf("thermal: got %d node powers, want %d", len(v), m.dc.NCN()))
	}
}
