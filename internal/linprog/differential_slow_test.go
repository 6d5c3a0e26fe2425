//go:build slow

package linprog

import "testing"

// TestDifferentialFull is the full oracle differential sweep — 600 seeded
// random LPs across every row/bound shape the generator emits, each
// checked against the textbook simplex and its KKT certificate.
// It runs in CI behind -tags slow; TestDifferentialShort covers the first
// 80 seeds on every plain `go test`.
func TestDifferentialFull(t *testing.T) {
	differentialSweep(t, 600)
}
