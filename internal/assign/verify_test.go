package assign_test

import (
	"testing"

	"thermaldc/internal/assign"
)

func TestVerifyCleanAssignment(t *testing.T) {
	// Every assignment the pipeline produces must verify cleanly, across
	// seeds.
	for seed := int64(61); seed < 64; seed++ {
		sc := smallScenario(t, seed)
		res, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if vs := assign.Verify(sc.DC, sc.Thermal, res, 1e-6); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
		}
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	sc := smallScenario(t, 65)
	hasKind := func(vs []assign.Violation, kind string) bool {
		for _, v := range vs {
			if v.Constraint == kind {
				return true
			}
		}
		return false
	}

	// Utilization: inflate one core's desired rate massively.
	tamper := func() *assign.ThreeStageResult {
		r, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := tamper()
	// Find an active core.
	core := -1
	for k := range r.PStates {
		j := sc.DC.CoreNode(k)
		if r.PStates[k] < sc.DC.NodeType(j).OffState() {
			core = k
			break
		}
	}
	if core < 0 {
		t.Fatal("no active core")
	}
	r.Stage3.TC[0][core] += 1e6
	vs := assign.Verify(sc.DC, sc.Thermal, r, 1e-6)
	if !hasKind(vs, "utilization") && !hasKind(vs, "deadline") {
		t.Errorf("inflated TC not detected: %v", vs)
	}
	if !hasKind(vs, "arrival") {
		t.Errorf("arrival violation not detected: %v", vs)
	}

	// Power: put every core in P-state 0.
	r = tamper()
	for k := range r.PStates {
		r.PStates[k] = 0
	}
	vs = assign.Verify(sc.DC, sc.Thermal, r, 1e-6)
	if !hasKind(vs, "power") {
		t.Errorf("power violation not detected: %v", vs)
	}

	// P-state range.
	r = tamper()
	r.PStates[0] = 99
	if vs := assign.Verify(sc.DC, sc.Thermal, r, 1e-6); !hasKind(vs, "pstate-range") {
		t.Errorf("invalid P-state not detected: %v", vs)
	}

	// Violation stringer.
	if len(vs) == 0 || vs[0].String() == "" {
		t.Error("violation String empty")
	}
}

// TestVerifyPowerAndRedlineAmounts checks Verify's constraint-4 and -5
// findings on plans over the cap and over the redlines against the thermal
// model's own entry points: the power violation's amount must equal
// TotalPower − Pconst bit for bit, and the redline violations must be
// exactly the inlets InletTemps puts above their redlines.
func TestVerifyPowerAndRedlineAmounts(t *testing.T) {
	const tol = 1e-6
	sc := smallScenario(t, 65)
	dc, tm := sc.DC, sc.Thermal
	base, err := assign.ThreeStage(dc, tm, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	redlines := 0
	for _, warmer := range []float64{0, 4, 8} {
		r := *base
		r.PStates = make([]int, len(base.PStates)) // every core at P-state 0
		s1 := *base.Stage1
		s1.CracOut = append([]float64(nil), base.Stage1.CracOut...)
		for i := range s1.CracOut {
			s1.CracOut[i] += warmer
		}
		r.Stage1 = &s1

		var power, redline []assign.Violation
		for _, v := range assign.Verify(dc, tm, &r, tol) {
			switch v.Constraint {
			case "power":
				power = append(power, v)
			case "redline":
				redline = append(redline, v)
			}
		}
		pcn := assign.NodePowersFromPStates(dc, r.PStates)
		want := tm.TotalPower(s1.CracOut, pcn) - dc.Pconst
		if len(power) != 1 || !bitsEq(power[0].Amount, want) {
			t.Fatalf("outlets +%g: power violations %v, want one by %v", warmer, power, want)
		}
		tin := tm.InletTemps(s1.CracOut, pcn)
		var wantRed []float64
		for u, lim := range dc.Redline() {
			if tin[u] > lim+tol {
				wantRed = append(wantRed, tin[u]-lim)
			}
		}
		if len(redline) != len(wantRed) {
			t.Fatalf("outlets +%g: %d redline violations, want %d", warmer, len(redline), len(wantRed))
		}
		for i, v := range redline {
			if !bitsEq(v.Amount, wantRed[i]) {
				t.Fatalf("outlets +%g: redline violation %d by %v, want %v", warmer, i, v.Amount, wantRed[i])
			}
		}
		redlines += len(redline)
	}
	if redlines == 0 {
		t.Fatal("no plan broke a redline; the redline check went unexercised")
	}
}
