//go:build !amd64

package sigproc

// Non-amd64 builds have no vector sweep backend; the portable per-slot
// sweep is the implementation.
const vecSupported = false

func dotSqSweep(out, ar, ai, br, bi []float64, off, stride, tones int) {
	dotSqSweepGeneric(out, ar, ai, br, bi, off, stride, tones)
}
