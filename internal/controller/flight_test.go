package controller

import (
	"testing"

	"thermaldc/internal/solvererr"
)

func TestFlightReason(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  EpochReport
		want string
	}{
		{"healthy carryover", EpochReport{}, ""},
		{"healthy warm resolve", EpochReport{Resolved: true, Rung: RungWarm}, ""},
		{"fallback names the rung",
			EpochReport{Resolved: true, Fallback: true, Rung: RungAllOff}, "ladder-all-off"},
		{"fallback outranks violations",
			EpochReport{Resolved: true, Fallback: true, Rung: RungPrevPlan, Violations: 2}, "ladder-prev-plan"},
		{"verifier rejection",
			EpochReport{Resolved: true, Rung: RungWarm, Violations: 1}, "verify-reject"},
		{"cold rung engagement",
			EpochReport{Resolved: true, Rung: RungCold}, "ladder-cold"},
		{"retry rung engagement",
			EpochReport{Resolved: true, Rung: RungRetry}, "ladder-retry"},
		{"absorbed solver error",
			EpochReport{Resolved: true, Rung: RungWarm, ErrKind: solvererr.Timeout}, "solve-error-timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := flightReason(&tc.rep); got != tc.want {
				t.Fatalf("flightReason(%+v) = %q, want %q", tc.rep, got, tc.want)
			}
		})
	}
}
