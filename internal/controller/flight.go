package controller

import (
	"thermaldc/internal/faults"
	"thermaldc/internal/flightrec"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
)

// flightReason decides whether an epoch's outcome warrants a flight
// bundle and names the trigger. Empty string means nothing went wrong.
// When several conditions hold at once the worst one names the bundle
// (the others are all visible inside it anyway).
func flightReason(rep *EpochReport) string {
	switch {
	case rep.Fallback:
		// Every solve attempt failed and a safe rung (prev-plan/all-off)
		// took over.
		return "ladder-" + rep.Rung.String()
	case rep.Violations > 0:
		return "verify-reject"
	case rep.Resolved && rep.Rung > RungWarm:
		// The ladder engaged past the warm rung (cold rebuild or retry).
		return "ladder-" + rep.Rung.String()
	case rep.ErrKind != solvererr.Unknown:
		// A classified solver error occurred even though the epoch
		// recovered (e.g. a warm reject absorbed before the cold rung).
		return "solve-error-" + rep.ErrKind.String()
	}
	return ""
}

// recordFlight dumps a diagnostic bundle for a degraded epoch. It is a
// no-op without a flight recorder or when the epoch was healthy. Dump
// failures are logged and swallowed: the black box never aborts the run
// it is documenting.
func recordFlight(cfg Config, rep *EpochReport, st *faults.State, samp *telemetry.EpochSample) {
	fr := cfg.FlightRec
	if fr == nil {
		return
	}
	reason := flightReason(rep)
	if reason == "" {
		return
	}
	if _, err := fr.Record(flightBundle(cfg, rep, st, samp, reason)); err != nil {
		log := cfg.Recorder.Logger()
		if log == nil {
			log = telemetry.Default()
		}
		log.Warn("flight recorder dump failed", "reason", reason, "err", err.Error())
	}
}

// flightBundle assembles the diagnostic payload: the epoch's sample (whose
// run, epoch, rung, error kind and violations also head the bundle), the
// recent span window, the fault-schedule state in force, and the epoch's
// LP stats.
func flightBundle(cfg Config, rep *EpochReport, st *faults.State, samp *telemetry.EpochSample, reason string) flightrec.Bundle {
	return flightrec.Bundle{
		Reason:     reason,
		Run:        samp.Run,
		Epoch:      samp.Epoch,
		Rung:       samp.Rung,
		ErrKind:    samp.ErrKind,
		Violations: samp.Violations,
		LP:         rep.LP,
		LastSample: samp,
		Faults:     st.Clone(),
		Spans:      cfg.FlightRec.SpanWindow(cfg.Recorder.Tracer().Snapshot()),
	}
}
