//go:build !linux

package main

import "time"

var wallEpoch = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not
// wired up; calibrations then count waits too.
func threadCPU() time.Duration { return time.Since(wallEpoch) }
