package assign_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
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

// sameViolations requires Verify's findings to equal the core-by-core
// oracle's: the whole slice, in order, with every Amount equal bit for bit.
func sameViolations(t *testing.T, name string, dc *model.DataCenter, tm *thermal.Model, r *assign.ThreeStageResult, tol float64) []assign.Violation {
	t.Helper()
	got := assign.Verify(dc, tm, r, tol)
	want := assign.VerifyOracle(dc, tm, r, tol)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Verify = %v\noracle  = %v", name, got, want)
	}
	for i := range got {
		if !bitsEq(got[i].Amount, want[i].Amount) {
			t.Fatalf("%s: violation %d amount %v, oracle %v", name, i, got[i].Amount, want[i].Amount)
		}
	}
	return got
}

// clonePlan deep-copies the parts of a plan Verify reads.
func clonePlan(r *assign.ThreeStageResult) *assign.ThreeStageResult {
	c := *r
	c.PStates = append([]int(nil), r.PStates...)
	s1 := *r.Stage1
	s1.CracOut = append([]float64(nil), r.Stage1.CracOut...)
	c.Stage1 = &s1
	s3 := *r.Stage3
	s3.TC = make([][]float64, len(r.Stage3.TC))
	for i, row := range r.Stage3.TC {
		s3.TC[i] = append([]float64(nil), row...)
	}
	c.Stage3 = &s3
	return &c
}

// tamperPlan breaks a random subset of the plan's constraints: P-state
// indices out of range, over-utilized cores, work on cores whose ECS is
// zero (off cores), negative rates, tightened deadlines and arrival
// rates, a lowered power cap and warmer CRAC outlets. It returns the
// tampered data-center copy (task types are copied before any change)
// and plan.
func tamperPlan(rng *rand.Rand, dc *model.DataCenter, base *assign.ThreeStageResult) (*model.DataCenter, *assign.ThreeStageResult) {
	d := *dc
	d.TaskTypes = append([]model.TaskType(nil), dc.TaskTypes...)
	r := clonePlan(base)
	tc := r.Stage3.TC
	ncores := len(r.PStates)
	pick := func() bool { return rng.Intn(3) == 0 }
	if pick() {
		for range 1 + rng.Intn(3) {
			k := rng.Intn(ncores)
			r.PStates[k] = []int{-1, d.NodeType(d.CoreNode(k)).OffState() + 1, 99}[rng.Intn(3)]
		}
	}
	if pick() {
		for range 1 + rng.Intn(5) {
			tc[rng.Intn(len(tc))][rng.Intn(ncores)] += 10 * rng.Float64()
		}
	}
	if pick() {
		for k, ps := range r.PStates {
			if ps == d.NodeType(d.CoreNode(k)).OffState() && rng.Intn(4) == 0 {
				tc[rng.Intn(len(tc))][k] = rng.Float64()
			}
		}
	}
	if pick() {
		tc[rng.Intn(len(tc))][rng.Intn(ncores)] = -rng.Float64()
	}
	if pick() {
		i := rng.Intn(len(d.TaskTypes))
		d.TaskTypes[i].RelDeadline *= rng.Float64()
	}
	if pick() {
		i := rng.Intn(len(d.TaskTypes))
		d.TaskTypes[i].ArrivalRate *= 0.5 + 0.5*rng.Float64()
	}
	if pick() {
		d.Pconst *= 0.8 + 0.2*rng.Float64()
	}
	if pick() {
		for i := range r.Stage1.CracOut {
			r.Stage1.CracOut[i] += 8 * rng.Float64()
		}
	}
	return &d, r
}

// TestVerifyMatchesOracle holds Verify's one node-blocked pass and banded
// inlet product to the core-by-core oracle on clean and randomly tampered
// plans of small scenarios, at a positive and a zero tolerance, and
// requires the tampering to have exercised every kind of violation.
func TestVerifyMatchesOracle(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(61); seed < 64; seed++ {
		sc := smallScenario(t, seed)
		base, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if vs := sameViolations(t, "clean", sc.DC, sc.Thermal, base, 1e-6); len(vs) != 0 {
			t.Fatalf("seed %d: clean plan has violations %v", seed, vs)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			dc, r := tamperPlan(rng, sc.DC, base)
			for _, tol := range []float64{1e-6, 0} {
				for _, v := range sameViolations(t, "tampered", dc, sc.Thermal, r, tol) {
					seen[v.Constraint] = true
					if strings.HasSuffix(v.Detail, "zero ECS") {
						seen["zero-ecs"] = true
					}
				}
			}
		}
	}
	for _, kind := range []string{"pstate-range", "utilization", "deadline", "zero-ecs", "arrival", "power", "redline"} {
		if !seen[kind] {
			t.Errorf("no tampered plan produced a %q violation", kind)
		}
	}
}

// TestVerifyMatchesOracleFleet compares Verify with the oracle on a 1k-node
// fleet cap step's plan, clean and tampered.
func TestVerifyMatchesOracleFleet(t *testing.T) {
	p := getFleet1k(t)
	if vs := sameViolations(t, "fleet clean", p.dc, p.tm, p.plan, 1e-6); len(vs) != 0 {
		t.Fatalf("clean fleet plan has violations %v", vs)
	}
	rng := rand.New(rand.NewSource(5))
	found := 0
	for trial := 0; trial < 4; trial++ {
		dc, r := tamperPlan(rng, p.dc, p.plan)
		found += len(sameViolations(t, "fleet tampered", dc, p.tm, r, 1e-6))
	}
	if found == 0 {
		t.Error("no tampered fleet plan had a violation")
	}
}
