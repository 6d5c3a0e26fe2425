package main

import (
	"runtime"
	"sync"
)

// The host this benchmark runs on is shared, and its speed drifts by up to
// 1.6x over minutes as other tenants load it: more than the changes the
// benchmark must resolve, and no longer run could average it away. So the
// timed end-to-end figures are scaled to a reference speed. A fixed
// calibration kernel, independent of the program under test, runs on every
// P right before each set-up and each op. With c the median of a run's
// calibrations, every wall time t of the run is reported as
// t * calibRefMS / c: the time it would take when the kernel takes
// calibRefMS. A single calibration is noisy; the median over a run is not.
//
// The kernel mixes two kinds of work the program does, which a busy
// neighbour slows differently: dense row updates like a simplex pivot,
// which share the core's execution units with a hyperthread sibling, and a
// dependent walk through memory past the cache, which waits on the shared
// cache and memory. Measured over runs in slow and quiet phases of the
// host, the row updates alone slowed about twice as much as the workloads'
// ops and the walk alone too little; their sum, a quarter row updates and
// three quarters walk on a quiet host, left the smallest spread on all
// three workloads (a streaming-write part made it worse).

const (
	calibN      = 192     // side of each worker's dense matrix (288 KB)
	calibPivots = 384     // row-update pivots per calibration
	calibChase  = 1 << 21 // pointer-walk table entries (8 MB)
	calibSteps  = 1 << 18 // pointer-walk steps per calibration
)

// calibRefMS is one calibration's time on the reference host
// (meta.json's reference_host) when quiet.
const calibRefMS = 45.0

// calibrator holds one kernel worker per P: the program's parallel layers
// run on every P, so the kernel does too. Running it allocates nothing, so
// it leaves the heap and the GC alone.
type calibrator struct {
	workers []*calibWorker
}

type calibWorker struct {
	a, a0 []float64
	chase []int32
	pos   int32
	sink  float64
	ms    float64 // CPU time of the worker's last calibration
}

func newCalibrator(procs int) *calibrator {
	c := &calibrator{}
	for k := 0; k < procs; k++ {
		w := &calibWorker{
			a:     make([]float64, calibN*calibN),
			a0:    make([]float64, calibN*calibN),
			chase: make([]int32, calibChase),
		}
		// Diagonally dominant, so elimination never meets a zero or
		// denormal pivot.
		for i := 0; i < calibN; i++ {
			for j := 0; j < calibN; j++ {
				w.a0[i*calibN+j] = 1 / float64(1+abs(i-j))
			}
			w.a0[i*calibN+i] += calibN
		}
		// One cycle through the whole table in a scrambled order (an odd
		// multiplier is a bijection modulo a power of two).
		for i := range w.chase {
			w.chase[i] = int32((uint32(i)*2654435761 + 1) % calibChase)
		}
		c.workers = append(c.workers, w)
	}
	return c
}

// dense runs calibPivots Gauss-Jordan row updates, restarting from the
// template matrix every calibN pivots.
func (w *calibWorker) dense() {
	n := calibN
	a := w.a
	for p := 0; p < calibPivots; p++ {
		r := p % n
		if r == 0 {
			copy(a, w.a0)
		}
		row := a[r*n : r*n+n]
		inv := 1 / row[r]
		for i := 0; i < n; i++ {
			if i == r {
				continue
			}
			f := a[i*n+r] * inv
			dst := a[i*n : i*n+n]
			for j, v := range row {
				dst[j] -= f * v
			}
		}
	}
	w.sink += a[n+1]
}

// walk follows calibSteps links of the pointer table.
func (w *calibWorker) walk() {
	pos := w.pos
	for s := 0; s < calibSteps; s++ {
		pos = w.chase[pos]
	}
	w.pos = pos
}

// run times one calibration: the kernel on every worker at once. Each
// worker measures the CPU time of its own thread, so time the thread waits
// for a CPU (runtime background work, other threads) does not count, while
// a neighbour slowing the CPU under it does. It returns the workers' mean
// in ms.
func (c *calibrator) run() float64 {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *calibWorker) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			w.dense()
			w.walk()
			w.ms = float64((threadCPU() - t0).Nanoseconds()) / 1e6
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, w := range c.workers {
		total += w.ms
	}
	return total / float64(len(c.workers))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
