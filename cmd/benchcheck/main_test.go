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
BenchmarkFleetReadback/10k-4        	       5	   1596884 ns/op	         4.023 B/core	         4.990 ns/core	 1287360 B/op	       7 allocs/op
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

// fleetCount5 is the fleet family at -count 5: the fourth 10k row is an
// outlier past the 1.25× scaling bound, the other four are not.
const fleetCount5 = `goos: linux
BenchmarkFleetStage1/1k-2 1 426725013 ns/op 420000 ns/node 17480 B/op 29 allocs/op
BenchmarkFleetStage1/1k-2 1 436725013 ns/op 430000 ns/node 17480 B/op 29 allocs/op
BenchmarkFleetStage1/1k-2 1 416725013 ns/op 410000 ns/node 17480 B/op 29 allocs/op
BenchmarkFleetStage1/1k-2 1 446725013 ns/op 440000 ns/node 17480 B/op 29 allocs/op
BenchmarkFleetStage1/1k-2 1 406725013 ns/op 400000 ns/node 17480 B/op 29 allocs/op
BenchmarkFleetStage1/10k-2 1 4235171810 ns/op 423517 ns/node 166760 B/op 35 allocs/op
BenchmarkFleetStage1/10k-2 1 4335171810 ns/op 433517 ns/node 166760 B/op 35 allocs/op
BenchmarkFleetStage1/10k-2 1 4135171810 ns/op 413517 ns/node 166760 B/op 35 allocs/op
BenchmarkFleetStage1/10k-2 1 6335171810 ns/op 633517 ns/node 166760 B/op 35 allocs/op
BenchmarkFleetStage1/10k-2 1 4035171810 ns/op 403517 ns/node 166760 B/op 35 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-2 3 415719568 ns/op 0 B/op 0 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-2 3 425719568 ns/op 0 B/op 0 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-2 3 405719568 ns/op 0 B/op 0 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-2 3 435719568 ns/op 0 B/op 0 allocs/op
BenchmarkFleetStage1/zone-warm-resolve-2 3 395719568 ns/op 0 B/op 0 allocs/op
BenchmarkFleetReadback/10k-2 1 1596884 ns/op 4.023 B/core 4.990 ns/core 1287360 B/op 7 allocs/op
PASS
`

// TestFoldRepeatedRows: -count N rows of one benchmark fold into their
// median, the gate reads the median (one outlier row does not fail it,
// a median past the bound does), the spread is printed, and allocs/op
// keeps its largest row.
func TestFoldRepeatedRows(t *testing.T) {
	results, err := parse(strings.NewReader(fleetCount5))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(results))
	}
	r := results["BenchmarkFleetStage1/10k"]
	if r.runs != 5 || r.nsPerNode != 423517 || r.nsNodeRange != [2]float64{403517, 633517} || r.nsPerOp != 4235171810 {
		t.Fatalf("10k folded to %+v; want 5 runs, median 423517 ns/node over 403517–633517", r)
	}
	if f, checked := check(results, 1.05, 1.25); len(f) != 0 || checked != 1 {
		t.Fatalf("failures = %v checked = %d; the median is within the bound", f, checked)
	}

	var out strings.Builder
	printSpreads(&out, results)
	want := "benchcheck: BenchmarkFleetStage1/10k: median of 5 runs 4235171810 ns/op (range 4035171810–6335171810, spread 54.3%), 423517 ns/node (range 403517–633517, spread 54.3%)\n"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("spread report:\n%s\nwant the line\n%s", out.String(), want)
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Fatalf("spread report has %d lines, want one per folded benchmark (3)", n)
	}

	// Three of five 10k rows past the bound move the median past it.
	slow := strings.Replace(fleetCount5, "413517 ns/node", "613517 ns/node", 1)
	slow = strings.Replace(slow, "423517 ns/node", "623517 ns/node", 1)
	results, err = parse(strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := check(results, 1.05, 1.25); len(f) != 1 || !strings.Contains(f[0], "scales worse") {
		t.Fatalf("failures = %v, want one scaling failure on the median", f)
	}

	// One allocating row of five breaks the zero-allocation contract.
	alloc := strings.Replace(fleetCount5, "425719568 ns/op 0 B/op 0 allocs/op", "425719568 ns/op 96 B/op 2 allocs/op", 1)
	results, err = parse(strings.NewReader(alloc))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := check(results, 1.05, 1.25); len(f) != 1 || !strings.Contains(f[0], "reports 2 allocs/op") {
		t.Fatalf("failures = %v, want one allocs-contract failure", f)
	}
}

// jsonCount2 is `go test -json -count 2` output: each result row arrives
// as a name event and a measurement event, and the repeat's events carry
// no Test field.
const jsonCount2 = `{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetStage1/1k","Output":"BenchmarkFleetStage1/1k-2 \t"}
{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetStage1/1k","Output":"       1\t   2056382 ns/op\t      2056 ns/node\t   20864 B/op\t      77 allocs/op\n"}
{"Action":"output","Package":"thermaldc","Output":"BenchmarkFleetStage1/1k-2 \t"}
{"Action":"output","Package":"thermaldc","Output":"       1\t   1963692 ns/op\t      1964 ns/node\t   20864 B/op\t      77 allocs/op\n"}
{"Action":"run","Package":"thermaldc","Test":"BenchmarkFleetStage1/10k"}
{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetStage1/10k","Output":"BenchmarkFleetStage1/10k-2 \t"}
{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetStage1/10k","Output":"       1\t  22759169 ns/op\t      2276 ns/node\t  199024 B/op\t     616 allocs/op\n"}
{"Action":"output","Package":"thermaldc","Output":"BenchmarkFleetStage1/10k-2 \t"}
{"Action":"output","Package":"thermaldc","Output":"       1\t  16832890 ns/op\t      1683 ns/node\t  199024 B/op\t     616 allocs/op\n"}
{"Action":"output","Package":"thermaldc","Output":"BenchmarkFleetStage1/zone-warm-resolve-2 \t       1\t   4721221 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"thermaldc","Output":"BenchmarkFleetStage1/zone-warm-resolve-2 \t       1\t   5574115 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetReadback/10k","Output":"BenchmarkFleetReadback/10k-2 \t"}
{"Action":"output","Package":"thermaldc","Test":"BenchmarkFleetReadback/10k","Output":"       1\t   1596884 ns/op\t         4.023 B/core\t         4.990 ns/core\t 1287360 B/op\t       7 allocs/op\n"}
`

// TestParseJSONRepeatedRows: every repeat of a -json -count run is parsed,
// the ones without a Test field included.
func TestParseJSONRepeatedRows(t *testing.T) {
	results, err := parse(strings.NewReader(jsonCount2))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"BenchmarkFleetStage1/1k":                (2056382 + 1963692) / 2.0,
		"BenchmarkFleetStage1/10k":               (22759169 + 16832890) / 2.0,
		"BenchmarkFleetStage1/zone-warm-resolve": (4721221 + 5574115) / 2.0,
	} {
		if r := results[name]; r.runs != 2 || r.nsPerOp != want {
			t.Errorf("%s folded to %+v; want 2 runs with median %.1f ns/op", name, r, want)
		}
	}
	if f, checked := check(results, 1.05, 1.25); len(f) != 0 || checked != 1 {
		t.Fatalf("failures = %v checked = %d, want a clean pass", f, checked)
	}
}

// TestCheckFleetReadbackBytesPerCore: the fleet family needs the 10k
// Stage-3 readback with a B/core metric at or below the cap, read from
// the row whatever custom metrics sit beside it, and a folded benchmark
// keeps its largest row's B/core.
func TestCheckFleetReadbackBytesPerCore(t *testing.T) {
	results, err := parse(strings.NewReader(fleetOK))
	if err != nil {
		t.Fatal(err)
	}
	rb := results["BenchmarkFleetReadback/10k"]
	if !rb.hasBytesCore || rb.bytesPerCore != 4.023 || !rb.hasAllocs || rb.allocsPerOp != 7 {
		t.Fatalf("readback parsed to %+v, want 4.023 B/core and 7 allocs/op", rb)
	}

	const row = "BenchmarkFleetReadback/10k-4        	       5	   1596884 ns/op	         4.023 B/core	         4.990 ns/core	 1287360 B/op	       7 allocs/op\n"
	for _, tc := range []struct{ name, row, want string }{
		// A per-core TC matrix: 8 bytes per task type and core.
		{"dense", "BenchmarkFleetReadback/10k-4 5 13047338 ns/op 72.01 B/core 40.77 ns/core 23045024 B/op 7 allocs/op\n", "allocates 72.01 B/core"},
		{"missing", "", "BenchmarkFleetReadback/10k missing"},
		{"no metric", "BenchmarkFleetReadback/10k-4 5 1596884 ns/op 4.990 ns/core\n", "has no B/core metric"},
		// Folding keeps the largest row: one of two rows over the cap fails.
		{"folded", row + "BenchmarkFleetReadback/10k-4 5 1596884 ns/op 16.5 B/core\n", "allocates 16.5 B/core"},
	} {
		results, err := parse(strings.NewReader(strings.Replace(fleetOK, row, tc.row, 1)))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := check(results, 1.05, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], tc.want) {
			t.Errorf("%s: failures = %v, want one containing %q", tc.name, f, tc.want)
		}
	}
}

const schedOK = `goos: linux
BenchmarkSchedulerNew/paper-2         	      20	    155720 ns/op	        36.46 B/core	         8.000 tasks	  174992 B/op	       8 allocs/op
PASS
`

// TestCheckSchedulerBytesPerCore: the scheduler family needs the paper
// build with a B/core metric at or below the cap, and counts as a family
// of its own.
func TestCheckSchedulerBytesPerCore(t *testing.T) {
	results, err := parse(strings.NewReader(schedOK))
	if err != nil {
		t.Fatal(err)
	}
	if f, checked := check(results, 1.05, 1.25); len(f) != 0 || checked != 1 {
		t.Fatalf("failures = %v checked = %d, want a clean pass of one family", f, checked)
	}
	const row = "BenchmarkSchedulerNew/paper-2         	      20	    155720 ns/op	        36.46 B/core	         8.000 tasks	  174992 B/op	       8 allocs/op\n"
	for _, tc := range []struct{ name, row, want string }{
		// Dense T × cores tables, as the scheduler built them per plan.
		{"dense", "BenchmarkSchedulerNew/paper-2 20 1184262 ns/op 310.2 B/core 8.000 tasks 1489040 B/op 47 allocs/op\n", "allocates 310.2 B/core"},
		{"missing", "BenchmarkSchedulerNew/other-2 20 155720 ns/op 36.46 B/core\n", "BenchmarkSchedulerNew/paper missing"},
		{"no metric", "BenchmarkSchedulerNew/paper-2 20 155720 ns/op 8.000 tasks\n", "has no B/core metric"},
	} {
		results, err := parse(strings.NewReader(strings.Replace(schedOK, row, tc.row, 1)))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := check(results, 1.05, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], tc.want) {
			t.Errorf("%s: failures = %v, want one containing %q", tc.name, f, tc.want)
		}
	}
}
