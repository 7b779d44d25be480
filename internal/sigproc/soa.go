package sigproc

import "math"

// Structure-of-arrays (SoA) complex kernels. The TRRS hot path stores
// normalized CSI as separate re/im float64 planes (one contiguous slab per
// antenna×tx, slot t at [t*tones, (t+1)*tones)) instead of []complex128
// rows, so the lag sweep of a base-matrix row walks memory sequentially.
// These kernels are the SoA counterparts of InnerProduct/Energy/Normalize.
//
// DotSqSoA keeps InnerProduct's exact per-element summation order, so the
// TRRS point queries (trrs Engine.Base, SelfSeries) and the portable sweep
// fallback are bit-for-bit the seed arithmetic (Go never reassociates
// floating-point expressions). Whole base-matrix rows go through the lag
// sweep in sweep.go instead. The explicit reslices after the length checks
// let the compiler prove every index in bounds — CI spot-checks the
// package with -gcflags=-d=checkbce.

// DotSqSoA returns |<a, b>|² for complex vectors given as separate
// real/imag slices: the squared magnitude of sum_k conj(a[k])*b[k].
// All four slices must have equal length; mismatch panics (hot-path
// callers guarantee shape). The accumulation order matches
// InnerProduct(a, b) element for element.
func DotSqSoA(ar, ai, br, bi []float64) float64 {
	n := len(ar)
	if len(ai) != n || len(br) != n || len(bi) != n {
		panic("sigproc: DotSqSoA length mismatch")
	}
	if n == 0 {
		return 0
	}
	ai = ai[:n]
	br = br[:n]
	bi = bi[:n]
	var re, im float64
	for k := 0; k < n; k++ {
		re += ar[k]*br[k] + ai[k]*bi[k]
		im += ar[k]*bi[k] - ai[k]*br[k]
	}
	return re*re + im*im
}

// EnergySoA returns <a, a> for a complex vector given as separate re/im
// slices, in Energy's element order (re²+im² per element, summed in
// index order). The slices must have equal length.
func EnergySoA(ar, ai []float64) float64 {
	n := len(ar)
	if len(ai) != n {
		panic("sigproc: EnergySoA length mismatch")
	}
	ai = ai[:n]
	var e float64
	for k := 0; k < n; k++ {
		e += ar[k]*ar[k] + ai[k]*ai[k]
	}
	return e
}

// NormalizeSoA scales (ar, ai) in place to unit energy and returns the
// original Euclidean norm; a zero vector is left unchanged and 0 returned.
// Scaling re and im by the scalar 1/n is bit-identical to Normalize's
// multiplication by complex(1/n, 0): for finite inputs the complex product
// degenerates to the same two scalar multiplies (the ±0 imaginary terms it
// adds cannot change a finite product's bits).
func NormalizeSoA(ar, ai []float64) float64 {
	n := len(ar)
	if len(ai) != n {
		panic("sigproc: NormalizeSoA length mismatch")
	}
	ai = ai[:n]
	norm := math.Sqrt(EnergySoA(ar, ai))
	if norm == 0 {
		return 0
	}
	inv := 1 / norm
	for k := 0; k < n; k++ {
		ar[k] *= inv
		ai[k] *= inv
	}
	return norm
}
