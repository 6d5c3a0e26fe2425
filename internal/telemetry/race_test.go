package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentWritersSoak hammers one tracer from many goroutines while
// a reader snapshots it, as the parallel tempsearch workers and zone
// solves do. Run under -race by `make ci` (and the race target), it is
// the layer's data-race gate; the final count check also catches lost
// spans.
func TestConcurrentWritersSoak(t *testing.T) {
	const (
		writers = 8
		iters   = 2000
	)
	tr := NewTracer(256)
	rec := &Recorder{Trace: tr}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sc := tr.Begin()
				tr.End(sc, SpanCandidate, int32(w), int64(i), 0)
			}
		}(w)
	}
	// A concurrent reader that also advances the run number: snapshots and
	// run stamps changing under the writers must be race-free.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.Snapshot()
			rec.NextRun()
		}
	}()
	wg.Wait()

	if got, want := tr.Count(), uint64(writers*iters); got != want {
		t.Errorf("tracer lost spans: %d, want %d", got, want)
	}
}
