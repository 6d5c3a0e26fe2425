package main

import (
	"bytes"
	"strings"
	"testing"

	"thermaldc/internal/telemetry"
)

// goodSeries is a valid two-run file written through the real exporter so
// the test cannot drift from the producer.
func goodSeries(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	rec := &telemetry.Recorder{Series: telemetry.NewJSONLWriter(&buf)}
	for run := 0; run < 2; run++ {
		rec.NextRun()
		for epoch := 0; epoch < 3; epoch++ {
			s := telemetry.EpochSample{
				Run:    rec.Run(),
				Epoch:  epoch,
				TStart: float64(epoch) * 15,
				TEnd:   float64(epoch+1) * 15,
				Rung:   "warm", Resolved: true,
				RewardRate: 100, Completed: 10,
				PowerKW: 9, PowerHeadroomKW: 0.5, InletHeadroomC: 1.25,
				CracOutC: []float64{17.5, 18.75},
				LPSolves: 4, LPPivots: 20, LPAllocBytes: 0,
			}
			if err := rec.Series.Write(&s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String()
}

func TestCheckStreamAcceptsExporterOutput(t *testing.T) {
	st, err := checkStream("good", strings.NewReader(goodSeries(t)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 6 || st.Runs != 2 {
		t.Fatalf("stats = %+v, want 6 rows across 2 runs", st)
	}
}

func TestCheckStreamRejections(t *testing.T) {
	good := goodSeries(t)
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")
	// corrupt rewrites one line of the good series.
	corrupt := func(i int, old, new string) string {
		mut := append([]string(nil), lines...)
		if !strings.Contains(mut[i], old) {
			t.Fatalf("line %d lacks %q: %s", i, old, mut[i])
		}
		mut[i] = strings.Replace(mut[i], old, new, 1)
		return strings.Join(mut, "\n") + "\n"
	}
	for _, tc := range []struct {
		name, in, want string
	}{
		{"unknown key", corrupt(0, `"epoch":0`, `"epohc":0`), "unknown key"},
		{"missing required", corrupt(0, `"reward_rate":100,`, ""), "missing required"},
		{"wrong type", corrupt(0, `"resolved":true`, `"resolved":"yes"`), "want bool"},
		{"nan", corrupt(0, `"reward_rate":100`, `"reward_rate":NaN`), "not a JSON object"},
		{"inf", corrupt(0, `"reward_rate":100`, `"reward_rate":1e999`), "not a finite number"},
		{"nan in array", corrupt(0, `"crac_out_c":[17.5,`, `"crac_out_c":[1e999,`), "not a finite number"},
		{"zero run", corrupt(0, `"run":1`, `"run":0`), "not positive"},
		{"run goes back", corrupt(5, `"run":2`, `"run":1`), "non-decreasing"},
		{"epoch repeats", corrupt(1, `"epoch":1`, `"epoch":0`), "strictly increasing"},
		{"time goes back", corrupt(2, `"t_start_s":30,"t_end_s":45`, `"t_start_s":1,"t_end_s":2`), "monotone"},
		{"backwards interval", corrupt(0, `"t_start_s":0,"t_end_s":15`, `"t_start_s":15,"t_end_s":0`), "backwards"},
		{"lp_solves wrong type", corrupt(4, `"lp_solves":4`, `"lp_solves":"4"`), "want number"},
		{"not json", "hello\n", "not a JSON object"},
		{"empty", "", "no samples"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkStream("bad", strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}
