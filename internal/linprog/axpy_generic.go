package linprog

// axpyNegGeneric is the portable y[i] -= f*x[i] loop, unrolled 4-wide; the
// bounds hint and unrolling keep the compiled loop check-free. Each product
// is rounded before the subtraction (the conversion forbids a fused
// multiply-subtract), as in axpyNegAVX2 and in gatherColumn's replay of
// queued pivots, so every platform and path computes the same bits.
func axpyNegGeneric(f float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+3 < len(x); i += 4 {
		y[i] -= float64(f * x[i])
		y[i+1] -= float64(f * x[i+1])
		y[i+2] -= float64(f * x[i+2])
		y[i+3] -= float64(f * x[i+3])
	}
	for ; i < len(x); i++ {
		y[i] -= float64(f * x[i])
	}
}
