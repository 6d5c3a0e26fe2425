package controller

import (
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
)

// errBit maps an error to the Span.Err convention (0 ok, 1 failed).
func errBit(err error) int32 {
	if err != nil {
		return 1
	}
	return 0
}

// epochSample builds the exported row of interval epoch of run (the
// recorder's run number) from its report and the truth plant in force
// over it. The plant is piecewise-constant over the interval, so the
// sample is exact, not an instant snapshot. The per-sensor headroom
// aliases the plant's scratch: the sample is valid until the next one is
// built, which is long enough for the series sink.
func epochSample(run, epoch int, rep *EpochReport, p *truthPlant) *telemetry.EpochSample {
	power, cap, by := p.headroom()
	worst := 0.0
	for i, h := range by {
		if i == 0 || h < worst {
			worst = h
		}
	}
	samp := &telemetry.EpochSample{
		Run:                    run,
		Epoch:                  epoch,
		TStart:                 rep.Start,
		TEnd:                   rep.End,
		Resolved:               rep.Resolved,
		Completed:              rep.Completed,
		Dropped:                rep.Dropped,
		Lost:                   rep.Lost,
		Violations:             rep.Violations,
		SolveWallS:             rep.SolveWall.Seconds(),
		PowerKW:                power,
		PowerHeadroomKW:        cap - power,
		InletHeadroomC:         worst,
		InletHeadroomBySensorC: by,
		CracOutC:               p.cracOut,
		LPSolves:               rep.LP.Solves,
		LPPivots:               rep.LP.Pivots,
		LPAllocBytes:           rep.LP.AllocBytes,
	}
	if dt := rep.End - rep.Start; dt > 0 {
		samp.RewardRate = rep.Reward / dt
	}
	if rep.Resolved {
		samp.Rung = rep.Rung.String()
	}
	if rep.ErrKind != solvererr.Unknown {
		samp.ErrKind = rep.ErrKind.String()
	}
	return samp
}
