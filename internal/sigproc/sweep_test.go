package sigproc

import (
	"math"
	"math/rand"
	"testing"
)

// sweepPlanes builds SoA planes holding `slots` consecutive snapshots of
// `tones` tones each, exactly the layout the TRRS engine sweeps.
func sweepPlanes(rng *rand.Rand, slots, tones int) (re, im []float64) {
	re = make([]float64, slots*tones)
	im = make([]float64, slots*tones)
	for k := range re {
		re[k] = rng.NormFloat64()
		im[k] = rng.NormFloat64()
	}
	return re, im
}

// TestDotSqSweepSoAMatchesScalar compares the sweep (assembly on amd64,
// generic elsewhere) against per-slot DotSqSoA across every tail class and
// both stride signs, including the engine's lag-sweep stride of -tones.
// The vector reduction reassociates, so the gate is 1e-12 relative — the
// same bound the trrs row fill carries.
func TestDotSqSweepSoAMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const slots = 9
	for tones := 0; tones <= 33; tones++ {
		ar, ai := sweepPlanes(rng, 1, tones)
		br, bi := sweepPlanes(rng, slots, tones)
		for _, stride := range []int{tones, -tones} {
			off := 0
			if stride < 0 {
				off = (slots - 1) * tones
			}
			out := make([]float64, slots)
			DotSqSweepSoA(out, ar, ai, br, bi, off, stride, tones)
			for k := 0; k < slots; k++ {
				o := off + k*stride
				want := DotSqSoA(ar, ai, br[o:o+tones], bi[o:o+tones])
				tol := 1e-12 * math.Max(math.Abs(want), 1)
				if math.Abs(out[k]-want) > tol {
					t.Fatalf("tones=%d stride=%d k=%d: sweep %v vs scalar %v",
						tones, stride, k, out[k], want)
				}
			}
		}
	}
}

// TestDotSqSweepSoAAccumulates verifies the += contract: the sweep adds
// into out, it does not overwrite. The per-tx TRRS accumulation depends on
// this.
func TestDotSqSweepSoAAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const slots, tones = 5, 30
	ar, ai := sweepPlanes(rng, 1, tones)
	br, bi := sweepPlanes(rng, slots, tones)
	base := make([]float64, slots)
	for k := range base {
		base[k] = float64(k + 1)
	}
	out := append([]float64(nil), base...)
	DotSqSweepSoA(out, ar, ai, br, bi, 0, tones, tones)
	for k := 0; k < slots; k++ {
		want := base[k] + DotSqSoA(ar, ai, br[k*tones:(k+1)*tones], bi[k*tones:(k+1)*tones])
		tol := 1e-12 * math.Max(math.Abs(want), 1)
		if math.Abs(out[k]-want) > tol {
			t.Fatalf("k=%d: %v, want %v", k, out[k], want)
		}
	}
}

// TestDotSqSweepMatchesGeneric cross-checks the dispatched implementation
// (assembly where available) against the portable generic directly on the
// same inputs.
func TestDotSqSweepMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const slots, tones = 11, 29
	ar, ai := sweepPlanes(rng, 1, tones)
	br, bi := sweepPlanes(rng, slots, tones)
	got := make([]float64, slots)
	want := make([]float64, slots)
	off := (slots - 1) * tones
	dotSqSweep(got, ar, ai, br, bi, off, -tones, tones)
	dotSqSweepGeneric(want, ar, ai, br, bi, off, -tones, tones)
	for k := range got {
		tol := 1e-12 * math.Max(math.Abs(want[k]), 1)
		if math.Abs(got[k]-want[k]) > tol {
			t.Fatalf("k=%d: dispatch %v vs generic %v", k, got[k], want[k])
		}
	}
	if VecSupported() {
		t.Logf("vector sweep backend active (AVX2+FMA)")
	} else {
		t.Logf("scalar sweep fallback active")
	}
}

// TestDotSqSweepBoundsPanic checks the geometry contract: any b_k block
// escaping the planes must panic rather than read out of bounds.
func TestDotSqSweepBoundsPanic(t *testing.T) {
	const slots, tones = 4, 8
	ar := make([]float64, tones)
	ai := make([]float64, tones)
	br := make([]float64, slots*tones)
	bi := make([]float64, slots*tones)
	out := make([]float64, slots)
	cases := []struct {
		name        string
		off, stride int
		count       int
	}{
		{"negative off", -1, tones, slots},
		{"tail past end", 1, tones, slots},
		{"negative stride underflow", 0, -tones, 2},
		{"count past end", 0, tones, slots + 1},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			DotSqSweepSoA(out[:tc.count], ar, ai, br, bi, tc.off, tc.stride, tones)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short a plane: expected panic")
			}
		}()
		DotSqSweepSoA(out, ar[:tones-1], ai, br, bi, 0, tones, tones)
	}()
}
