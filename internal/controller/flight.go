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
func recordFlight(cfg Config, res *Result, rep *EpochReport, st *faults.State, samp *telemetry.EpochSample) {
	fr := cfg.FlightRec
	if fr == nil {
		return
	}
	reason := flightReason(rep)
	if reason == "" {
		return
	}
	b := flightBundle(cfg, res, rep, st, samp, reason)
	if _, err := fr.Record(b); err != nil {
		log := cfg.Recorder.Logger()
		if log == nil {
			log = telemetry.Default()
		}
		log.Warn("flight recorder dump failed", "reason", reason, "err", err.Error())
	}
}

// flightBundle assembles the diagnostic payload: the epoch's outcome and
// sample, the recent span window, a metrics snapshot, the fault-schedule
// state in force, and the epoch's LP work stats.
func flightBundle(cfg Config, res *Result, rep *EpochReport, st *faults.State, samp *telemetry.EpochSample, reason string) flightrec.Bundle {
	b := flightrec.Bundle{
		Reason:     reason,
		Epoch:      res.EpochsSeen - 1,
		Violations: rep.Violations,
		LP:         rep.LP,
		LastSample: samp,
	}
	if rep.Resolved {
		b.Rung = rep.Rung.String()
	}
	if rep.ErrKind != solvererr.Unknown {
		b.ErrKind = rep.ErrKind.String()
	}
	if st != nil {
		b.Faults = st.Clone()
	}
	if samp != nil {
		b.Run = samp.Run
	}
	if rec := cfg.Recorder; rec != nil {
		b.Spans = cfg.FlightRec.SpanWindow(rec.Tracer().Snapshot())
		if reg := rec.Registry(); reg != nil {
			b.Metrics = reg.Snapshot()
		}
	}
	return b
}
