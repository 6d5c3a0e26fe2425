package main

import (
	"sort"
	"strings"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/telemetry"
)

// layers are the layer names self time is attributed to, in report order.
// "other" is op time inside no timed call and no program span: the
// benchmark's own glue between layer calls.
var layers = []string{"scenario", "assign", "tempsearch", "linprog", "controller", "zones", "other"}

// layerIndex maps a layer name to its position in layers; unknown names
// fall into "other".
func layerIndex(name string) int {
	for i, l := range layers {
		if l == name {
			return i
		}
	}
	return len(layers) - 1
}

// call is one public layer call an op made, timed from outside. The layer
// is the name's prefix up to the first dot ("assign.baseline" → assign).
type call struct {
	name       string
	start, end time.Duration // offsets from the clock's epoch
}

func (c call) layer() string {
	if i := strings.IndexByte(c.name, '.'); i > 0 {
		return c.name[:i]
	}
	return c.name
}

// clock times an op's layer calls against one epoch: the tracer's wall
// start when tracing, so call offsets and span offsets share an origin.
type clock struct {
	epoch time.Time
	calls []call
}

// time runs f as one call of the named layer.
func (c *clock) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	c.calls = append(c.calls, call{name: name, start: t0.Sub(c.epoch), end: time.Since(c.epoch)})
	return err
}

// sum returns the total duration of the op's calls with the given name.
func (c *clock) sum(name string) time.Duration {
	var d time.Duration
	for _, cl := range c.calls {
		if cl.name == name {
			d += cl.end - cl.start
		}
	}
	return d
}

// spanLayer places a program span in the layer hierarchy: the layer it
// belongs to and its depth (outside calls are depth 0). Depth follows the
// pipeline's nesting: epoch ⊃ rung ⊃ stage/coord-round ⊃ candidate/zone
// solve ⊃ LP solve.
func spanLayer(s telemetry.Span) (layer string, depth int) {
	switch s.Kind {
	case telemetry.SpanEpoch:
		return "controller", 1
	case telemetry.SpanRung:
		return "controller", 2
	case telemetry.SpanStage:
		if s.Label == assign.StageLabelSearch {
			return "tempsearch", 3
		}
		return "assign", 3
	case telemetry.SpanCoordRound:
		return "zones", 3
	case telemetry.SpanCandidate:
		return "tempsearch", 4
	case telemetry.SpanZoneSolve:
		return "zones", 4
	case telemetry.SpanLPSolve:
		return "linprog", 5
	}
	return "other", 0
}

const maxDepth = 5

// interval is one call or span inside an op window.
type interval struct {
	start, end time.Duration
	depth      int
	layer      int
}

// selfTimes attributes every instant of the op window [start, end) to one
// layer: the deepest call or span active at that instant, or "other" when
// none is. Self time of a layer is therefore its span time minus the time
// its child spans cover, and the layers' self times sum to the op's wall
// time exactly, even when search workers run on parallel tracks (an
// instant where any worker is inside an LP solve counts as linprog).
func selfTimes(start, end time.Duration, calls []call, spans []telemetry.Span) []time.Duration {
	var ivs []interval
	add := func(s, e time.Duration, depth, layer int) {
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			ivs = append(ivs, interval{s, e, depth, layer})
		}
	}
	for _, c := range calls {
		add(c.start, c.end, 0, layerIndex(c.layer()))
	}
	for _, s := range spans {
		l, d := spanLayer(s)
		add(s.Start, s.Start+s.Dur, d, layerIndex(l))
	}

	type event struct {
		t     time.Duration
		delta int
		iv    int
	}
	evs := make([]event, 0, 2*len(ivs))
	for i, iv := range ivs {
		evs = append(evs, event{iv.start, 1, i}, event{iv.end, -1, i})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })

	var active [maxDepth + 1][]int
	for d := range active {
		active[d] = make([]int, len(layers))
	}
	deepest := func() int {
		for d := maxDepth; d >= 0; d-- {
			for l, n := range active[d] {
				if n > 0 {
					return l
				}
			}
		}
		return len(layers) - 1
	}
	self := make([]time.Duration, len(layers))
	prev := start
	for _, ev := range evs {
		if ev.t > prev {
			self[deepest()] += ev.t - prev
			prev = ev.t
		}
		iv := ivs[ev.iv]
		active[iv.depth][iv.layer] += ev.delta
	}
	if end > prev {
		self[deepest()] += end - prev
	}
	return self
}
