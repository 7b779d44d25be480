package sigproc

import (
	"math"
	"math/rand"
	"testing"
)

// splitSoA converts an AoS complex vector to SoA planes.
func splitSoA(a []complex128) (re, im []float64) {
	re = make([]float64, len(a))
	im = make([]float64, len(a))
	for k, c := range a {
		re[k] = real(c)
		im[k] = imag(c)
	}
	return re, im
}

// TestDotSqSoAMatchesInnerProductBitwise pins the scalar SoA kernel to
// the seed arithmetic: for every length (including the empty vector and
// all small tails) the SoA result must be bit-for-bit the squared
// magnitude InnerProduct yields.
func TestDotSqSoAMatchesInnerProductBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 130; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		ar, ai := splitSoA(a)
		br, bi := splitSoA(b)
		ip := InnerProduct(a, b)
		re, im := real(ip), imag(ip)
		want := re*re + im*im
		got := DotSqSoA(ar, ai, br, bi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: DotSqSoA=%x InnerProduct|.|²=%x", n, got, want)
		}
	}
}

// TestNormalizeSoAMatchesNormalizeBitwise pins the SoA normalization to
// the seed's complex-scalar multiply, including the returned norm and the
// zero-vector no-op.
func TestNormalizeSoAMatchesNormalizeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n <= 40; n++ {
		a := randVec(rng, n)
		ar, ai := splitSoA(a)
		wantNorm := Normalize(a)
		gotNorm := NormalizeSoA(ar, ai)
		if math.Float64bits(wantNorm) != math.Float64bits(gotNorm) {
			t.Fatalf("n=%d: norm %x != %x", n, gotNorm, wantNorm)
		}
		for k := range a {
			if math.Float64bits(real(a[k])) != math.Float64bits(ar[k]) ||
				math.Float64bits(imag(a[k])) != math.Float64bits(ai[k]) {
				t.Fatalf("n=%d k=%d: normalized (%x,%x) != (%x,%x)",
					n, k, ar[k], ai[k], real(a[k]), imag(a[k]))
			}
		}
	}
	zr, zi := make([]float64, 5), make([]float64, 5)
	if NormalizeSoA(zr, zi) != 0 {
		t.Fatal("zero vector must return norm 0")
	}
	if got := EnergySoA(zr, zi); got != 0 {
		t.Fatalf("zero vector energy %v", got)
	}
}

// TestEnergySoAMatchesEnergyBitwise pins EnergySoA to Energy.
func TestEnergySoAMatchesEnergyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 40; n++ {
		a := randVec(rng, n)
		ar, ai := splitSoA(a)
		if w, g := Energy(a), EnergySoA(ar, ai); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("n=%d: %x != %x", n, g, w)
		}
	}
}

// TestSoAKernelsPanicOnMismatch checks the shape contract.
func TestSoAKernelsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotSqSoA must panic on length mismatch")
		}
	}()
	DotSqSoA(make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 2))
}
