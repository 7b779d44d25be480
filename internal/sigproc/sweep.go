package sigproc

// Lag-sweep TRRS kernel. A base-matrix row evaluates |<a, b_k>|² for one
// fixed snapshot a against a run of consecutive snapshots b_k — in the SoA
// planes those b_k are adjacent tones-sized blocks, so the whole sweep is
// one strided walk over contiguous memory. The sweep amortizes the
// per-call cost (prologue, tail-mask setup) over the entire lag band
// instead of paying it once per matrix entry, which is where the AVX2
// build gets most of its headroom over per-entry vector calls.
//
// On amd64 with AVX2+FMA (runtime-detected, see VecSupported) the sweep
// dispatches to hand-written assembly: 4 float64 lanes, four FMA
// accumulator registers per slot, masked tail loads from a static table so
// no tail element is ever touched out of bounds. Everywhere else it falls
// back to one DotSqSoA call per slot. The assembly accumulates lanewise
// and reduces pairwise, so it agrees with DotSqSoA only to rounding: the
// trrs row fill that consumes it is gated at 1e-12 relative against the
// sequential oracle its tests keep.

// VecSupported reports whether the sweep is backed by AVX2+FMA assembly on
// this machine. When false the sweep still works (per-slot DotSqSoA
// fallback); callers gating benchmarks on real SIMD should check this.
func VecSupported() bool { return vecSupported }

// checkSweep validates one sweep call: a must hold tones elements, and
// every b_k block [off+k*stride, off+k*stride+tones) for k in [0, count)
// must lie inside the b planes. The offsets are monotonic in k, so the two
// end blocks bound them all.
func checkSweep(count, na, nai, nbr, nbi, off, stride, tones int) {
	if tones < 0 || na < tones || nai < tones {
		panic("sigproc: DotSqSweepSoA a-plane shorter than tones")
	}
	if count == 0 {
		return
	}
	lo, hi := off, off+(count-1)*stride
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 || hi+tones > nbr || hi+tones > nbi {
		panic("sigproc: DotSqSweepSoA b-plane range out of bounds")
	}
}

// DotSqSweepSoA accumulates out[k] += |<a, b_k>|² for k in [0, len(out)),
// where a is (ar, ai)[0:tones] and b_k is (br, bi)[off+k*stride :
// off+k*stride+tones]. stride may be negative (the TRRS lag sweep walks
// earlier slots as the lag grows). Out-of-bounds geometry panics.
func DotSqSweepSoA(out, ar, ai, br, bi []float64, off, stride, tones int) {
	checkSweep(len(out), len(ar), len(ai), len(br), len(bi), off, stride, tones)
	if len(out) == 0 || tones == 0 {
		return
	}
	dotSqSweep(out, ar, ai, br, bi, off, stride, tones)
}

// dotSqSweepGeneric is the portable sweep: one DotSqSoA call per slot. It
// is the implementation without AVX2 and the oracle the assembly is tested
// against (to rounding; the lane reduction differs).
func dotSqSweepGeneric(out, ar, ai, br, bi []float64, off, stride, tones int) {
	ar, ai = ar[:tones], ai[:tones]
	for k := range out {
		o := off + k*stride
		out[k] += DotSqSoA(ar, ai, br[o:o+tones], bi[o:o+tones])
	}
}
