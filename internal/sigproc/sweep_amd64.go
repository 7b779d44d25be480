package sigproc

// Runtime CPU feature detection for the AVX2+FMA sweep kernel. The
// repository is dependency-free, so the CPUID/XGETBV probes are the two
// tiny assembly stubs in sweep_amd64.s rather than x/sys/cpu.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// vecSupported is fixed at startup: AVX2 and FMA present, and the OS has
// enabled XMM+YMM state saving (XCR0 bits 1 and 2), so the 256-bit
// register file is actually usable.
var vecSupported = detectVec()

func detectVec() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// The assembly entry point. The Go wrapper in sweep.go has already
// bounds-checked the full strided range, so the kernel receives raw base
// pointers; noescape keeps the hot path allocation-free.

//go:noescape
func dotSqSweepAVX2(out, ar, ai, br, bi *float64, tones, count, stride int)

func dotSqSweep(out, ar, ai, br, bi []float64, off, stride, tones int) {
	if !vecSupported {
		dotSqSweepGeneric(out, ar, ai, br, bi, off, stride, tones)
		return
	}
	dotSqSweepAVX2(&out[0], &ar[0], &ai[0], &br[off], &bi[off], tones, len(out), stride)
}
