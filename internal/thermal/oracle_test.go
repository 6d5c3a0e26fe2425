package thermal

import (
	"fmt"
	"math"

	"thermaldc/internal/linalg"
	"thermaldc/internal/model"
	"thermaldc/internal/power"
)

// newDenseOracle is New as one dense factorization of the whole floor:
// A on n×n, M = I − S·A factored by one LU, and the dense n×NCRAC and
// n×NCN right-hand sides solved column by column with full substitutions
// (solveColumns). New factors each
// connected component of α on its own and must return exactly these maps,
// bit for bit, and the same error on a singular floor.
func newDenseOracle(dc *model.DataCenter) (*Model, error) {
	n := dc.NumThermal()
	ncrac := dc.NCRAC()
	flows := dc.Flows()

	a := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		row := a.Row(j)
		for i := 0; i < n; i++ {
			row[i] = dc.Alpha[i][j] * flows[i] / flows[j]
		}
	}
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
	eCRAC := linalg.NewMatrix(n, ncrac)
	for i := 0; i < ncrac; i++ {
		eCRAC.Set(i, i, 1)
	}
	ePow := linalg.NewMatrix(n, dc.NCN())
	for j := 0; j < dc.NCN(); j++ {
		t := ncrac + j
		ePow.Set(t, j, 1/(power.RhoCp*flows[t]))
	}
	outFromCRAC, err := solveColumns(lu, eCRAC)
	if err != nil {
		return nil, fmt.Errorf("thermal: solving CRAC sensitivity: %w", err)
	}
	outFromPower, err := solveColumns(lu, ePow)
	if err != nil {
		return nil, fmt.Errorf("thermal: solving power sensitivity: %w", err)
	}
	g := a.Mul(outFromPower)
	gLo, gHi := rowBands(g)
	return &Model{
		dc:           dc,
		outFromCRAC:  outFromCRAC,
		outFromPower: outFromPower,
		tinFromCRAC:  a.Mul(outFromCRAC),
		g:            g,
		gLo:          gLo,
		gHi:          gHi,
		flows:        flows,
	}, nil
}

// solveColumns solves lu·X = b with a full SolveInto per column, so the
// oracle does not share SolveMatrix's leading-zero skip with New.
func solveColumns(lu *linalg.LU, b *linalg.Matrix) (*linalg.Matrix, error) {
	out := linalg.NewMatrix(b.Rows, b.Cols)
	col, x := make([]float64, b.Rows), make([]float64, b.Rows)
	for c := 0; c < b.Cols; c++ {
		for r := range col {
			col[r] = b.At(r, c)
		}
		if err := lu.SolveInto(x, col); err != nil {
			return nil, err
		}
		for r, v := range x {
			out.Set(r, c, v)
		}
	}
	return out, nil
}

// MatchDenseOracle exposes matchDenseOracle to the external tests.
var MatchDenseOracle = matchDenseOracle

// matchDenseOracle builds dc's model with New and with newDenseOracle and
// returns the first difference: an error from one path but not the other,
// different error texts, or a map entry, band bound or flow whose bits
// differ.
func matchDenseOracle(dc *model.DataCenter) error {
	got, gotErr := New(dc)
	want, wantErr := newDenseOracle(dc)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("New error %v, dense oracle error %v", gotErr, wantErr)
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		got, want *linalg.Matrix
	}{
		{"outFromCRAC", got.outFromCRAC, want.outFromCRAC},
		{"outFromPower", got.outFromPower, want.outFromPower},
		{"tinFromCRAC", got.tinFromCRAC, want.tinFromCRAC},
		{"G", got.g, want.g},
	} {
		if c.got.Rows != c.want.Rows || c.got.Cols != c.want.Cols {
			return fmt.Errorf("%s is %dx%d, dense oracle %dx%d", c.name, c.got.Rows, c.got.Cols, c.want.Rows, c.want.Cols)
		}
		for i, v := range c.got.Data {
			if w := c.want.Data[i]; math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("%s[%d][%d] = %v (bits %#x), dense oracle %v (bits %#x)",
					c.name, i/c.got.Cols, i%c.got.Cols, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
	for r := range want.gLo {
		if got.gLo[r] != want.gLo[r] || got.gHi[r] != want.gHi[r] {
			return fmt.Errorf("G row %d band [%d, %d), dense oracle [%d, %d)", r, got.gLo[r], got.gHi[r], want.gLo[r], want.gHi[r])
		}
	}
	for i, f := range want.flows {
		if math.Float64bits(got.flows[i]) != math.Float64bits(f) {
			return fmt.Errorf("flow %d = %v, dense oracle %v", i, got.flows[i], f)
		}
	}
	return nil
}
