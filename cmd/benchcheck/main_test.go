package main

import (
	"strings"
	"testing"
)

const plainOK = `goos: linux
BenchmarkThreeStagePaperScale/legacy-rebuild-4         	       3	 268833180 ns/op
BenchmarkThreeStagePaperScale/solver-serial-4          	       3	 117461279 ns/op
BenchmarkThreeStagePaperScale/warm-resolve-allocs-4    	       3	    552366 ns/op	       0 B/op	       0 allocs/op
BenchmarkThreeStagePaperScale/warm-resolve-allocs-metrics-4    	       3	    553101 ns/op	       0 B/op	       0 allocs/op
PASS
`

const jsonOK = `{"Action":"run","Test":"BenchmarkThreeStagePaperScale"}
{"Action":"output","Output":"BenchmarkThreeStagePaperScale/legacy-rebuild \t       3\t 268833180 ns/op\n"}
{"Action":"output","Output":"BenchmarkThreeStagePaperScale/solver-serial \t       3\t 117461279 ns/op\n"}
{"Action":"output","Output":"BenchmarkThreeStagePaperScale/warm-resolve-allocs \t       3\t 552366 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Output":"BenchmarkThreeStagePaperScale/warm-resolve-allocs-metrics \t       3\t 553101 ns/op\t       0 B/op\t       0 allocs/op\n"}
`

const fleetOK = `goos: linux
BenchmarkFleetStage1/1k-4         	       2	 426725013 ns/op	    426725 ns/node	   17480 B/op	      29 allocs/op
BenchmarkFleetStage1/10k-4        	       2	4235171810 ns/op	    423517 ns/node	  166760 B/op	      35 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-4 	       3	 415719568 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseAndCheckPass(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"plain", plainOK},
		{"json", jsonOK},
	} {
		results, err := parse(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: parsed %d results, want 4", tc.name, len(results))
		}
		f, checked := check(results, 1.05, 1.25)
		if len(f) != 0 {
			t.Fatalf("%s: unexpected failures: %v", tc.name, f)
		}
		if checked != 1 {
			t.Fatalf("%s: checked %d families, want 1", tc.name, checked)
		}
	}
}

func TestCheckFailsOnAllocs(t *testing.T) {
	in := strings.Replace(plainOK, "0 allocs/op", "3 allocs/op", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "zero-allocation contract") {
		t.Fatalf("failures = %v, want one allocs-contract failure", f)
	}
}

func TestCheckFailsWhenFlatSlower(t *testing.T) {
	in := strings.Replace(plainOK, " 117461279 ns/op", " 468833180 ns/op", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "slower than") {
		t.Fatalf("failures = %v, want one slower-than failure", f)
	}
}

// TestCheckIgnoresUnknownFamilies: a file with no gated family is not a
// pass — run() turns checked == 0 into exit code 2.
func TestCheckIgnoresUnknownFamilies(t *testing.T) {
	results, err := parse(strings.NewReader("BenchmarkOther-4 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	f, checked := check(results, 1.05, 1.25)
	if len(f) != 0 || checked != 0 {
		t.Fatalf("failures = %v checked = %d, want none", f, checked)
	}
}

// TestCheckFailsOnMissingFamilyMembers: once any simplex benchmark appears,
// every member of the family must (a typo'd -bench regex must not pass).
func TestCheckFailsOnMissingFamilyMembers(t *testing.T) {
	results, err := parse(strings.NewReader(
		"BenchmarkThreeStagePaperScale/legacy-rebuild-4 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	f, checked := check(results, 1.05, 1.25)
	if checked != 1 || len(f) != 3 {
		t.Fatalf("failures = %v (checked %d), want 3 missing-benchmark failures", f, checked)
	}
}

// TestCheckFleetPass: the fleet family parses its ns/node metric and the
// flat-scaling gate holds on real-shaped output.
func TestCheckFleetPass(t *testing.T) {
	results, err := parse(strings.NewReader(fleetOK))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := results["BenchmarkFleetStage1/10k"]
	if !ok || !r.hasNsNode || r.nsPerNode != 423517 {
		t.Fatalf("10k point parsed wrong: %+v (ok=%v)", r, ok)
	}
	f, checked := check(results, 1.05, 1.25)
	if len(f) != 0 || checked != 1 {
		t.Fatalf("failures = %v checked = %d, want clean single-family pass", f, checked)
	}
}

// TestCheckFleetFailsOnScaling: a 10k point past tolerance × the 1k point
// breaks the linear-or-better scaling contract.
func TestCheckFleetFailsOnScaling(t *testing.T) {
	in := strings.Replace(fleetOK, "423517 ns/node", "633517 ns/node", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "scales worse") {
		t.Fatalf("failures = %v, want one scaling failure", f)
	}
}

// TestCheckFleetFailsWithout10k: the 1k point alone must not pass the gate.
func TestCheckFleetFailsWithout10k(t *testing.T) {
	in := strings.Replace(fleetOK,
		"BenchmarkFleetStage1/10k-4        	       2	4235171810 ns/op	    423517 ns/node	  166760 B/op	      35 allocs/op\n", "", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "10k missing") {
		t.Fatalf("failures = %v, want one missing-10k failure", f)
	}
}

// TestCheckFleetFailsWithoutZoneWarm: zone-warm-resolve is a mandatory
// family member — dropping it from the bench regex must not pass.
func TestCheckFleetFailsWithoutZoneWarm(t *testing.T) {
	in := strings.Replace(fleetOK,
		"BenchmarkFleetStage1/zone-warm-resolve-4 	       3	 415719568 ns/op	       0 B/op	       0 allocs/op\n", "", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "zone-warm-resolve missing") {
		t.Fatalf("failures = %v, want one missing-zone-warm failure", f)
	}
}

// TestCheckFleetFailsOnZoneWarmAllocs: any allocation on the zone warm
// re-solve breaks its zero-allocation contract.
func TestCheckFleetFailsOnZoneWarmAllocs(t *testing.T) {
	in := strings.Replace(fleetOK, "0 B/op	       0 allocs/op", "96 B/op	       4 allocs/op", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "zero-allocation contract") {
		t.Fatalf("failures = %v, want one allocs-contract failure", f)
	}
}

// TestCheckFleetGates50kWhenPresent: the optional 50k point is held to the
// same bar once it appears.
func TestCheckFleetGates50kWhenPresent(t *testing.T) {
	in := strings.Replace(fleetOK, "PASS",
		"BenchmarkFleetStage1/50k-4 1 32000000000 ns/op 640000 ns/node\nPASS", 1)
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := check(results, 1.05, 1.25)
	if len(f) != 1 || !strings.Contains(f[0], "50k") {
		t.Fatalf("failures = %v, want one 50k scaling failure", f)
	}
}
