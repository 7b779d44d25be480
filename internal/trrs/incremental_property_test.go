package trrs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rim/internal/csi"
)

// incFromSeries builds an Incremental and appends slots [0, upTo) of s.
func incFromSeries(t *testing.T, s *csi.Series, w, upTo int) *Incremental {
	t.Helper()
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < upTo; ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// Property: extending in two batches is equivalent to one shot —
// Extend(a)+Extend(b) over a split point produces the same matrix as
// appending everything before the first query.
func TestIncrementalExtendSplitProperty(t *testing.T) {
	f := func(seed int64, splitRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const slots = 24
		s := randomSeries(rng, 2, 1, 8, slots)
		w := 2 + int(wRaw%8)
		split := 1 + int(splitRaw)%(slots-1)

		twoShot := incFromSeries(t, s, w, split)
		if _, err := twoShot.ExtendMatrix(0, 1); err != nil { // query mid-stream
			return false
		}
		for ti := split; ti < slots; ti++ {
			if err := twoShot.Append(seriesSnapshot(s, ti)); err != nil {
				return false
			}
		}
		got, err := twoShot.ExtendMatrix(0, 1)
		if err != nil {
			return false
		}

		oneShot := incFromSeries(t, s, w, slots)
		want, err := oneShot.ExtendMatrix(0, 1)
		if err != nil {
			return false
		}
		if len(got.Vals) != len(want.Vals) {
			return false
		}
		for ti := range want.Vals {
			for c := range want.Vals[ti] {
				if got.Vals[ti][c] != want.Vals[ti][c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: incremental matrices keep the TRRS bounds — every entry in
// [0, 1], the zero-lag self column exactly 1 for in-range references —
// and the κ̄ symmetry κ(i,j,t,t−l) = κ(j,i,t−l,t) holds between the (i,j)
// and (j,i) maintained matrices.
func TestIncrementalBoundsAndSymmetryProperty(t *testing.T) {
	f := func(seed int64, dropRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const slots, w = 20, 5
		s := randomSeries(rng, 2, 2, 8, slots)
		inc := incFromSeries(t, s, w, slots)
		inc.DropFront(int(dropRaw) % 10)
		mij, err := inc.ExtendMatrix(0, 1)
		if err != nil {
			return false
		}
		mji, err := inc.ExtendMatrix(1, 0)
		if err != nil {
			return false
		}
		mSelf, err := inc.ExtendMatrix(0, 0)
		if err != nil {
			return false
		}
		n := len(mij.Vals)
		for ti := 0; ti < n; ti++ {
			for c := 0; c <= 2*w; c++ {
				v := mij.Vals[ti][c]
				if v < -1e-12 || v > 1+1e-9 {
					return false
				}
				// κ̄(0@ti, 1@tj) must equal κ̄(1@tj, 0@ti): the same inner
				// product magnitude read from the transposed matrix cell.
				tj := ti - (c - w)
				if tj >= 0 && tj < n {
					if lag2 := tj - ti; lag2 >= -w && lag2 <= w {
						if absf(v-mji.Vals[tj][lag2+w]) > 1e-12 {
							return false
						}
					}
				}
			}
			if d := mSelf.Vals[ti][w]; absf(d-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: W/V window invariants — every maintained matrix row is
// exactly 2W+1 wide, the slot extent tracks the window through appends
// and drops, out-of-window references are exactly 0, and VirtualMassive
// over an incremental matrix stays within [0, 1] for any V.
func TestIncrementalWindowInvariantsProperty(t *testing.T) {
	f := func(seed int64, wRaw, vRaw, dropRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const slots = 18
		w := 1 + int(wRaw%7)
		s := randomSeries(rng, 2, 1, 6, slots)
		inc := incFromSeries(t, s, w, slots)
		if inc.W() != w || inc.NumSlots() != slots {
			return false
		}
		drop := int(dropRaw) % slots
		inc.DropFront(drop)
		if inc.NumSlots() != slots-drop {
			return false
		}
		m, err := inc.ExtendMatrix(0, 1)
		if err != nil {
			return false
		}
		if len(m.Vals) != inc.NumSlots() {
			return false
		}
		for ti, row := range m.Vals {
			if len(row) != 2*w+1 {
				return false
			}
			for c := range row {
				tj := ti - (c - w)
				if (tj < 0 || tj >= inc.NumSlots()) && row[c] != 0 {
					return false // out-of-window references must be exactly 0
				}
			}
		}
		v := 1 + int(vRaw%12)
		boosted, err := VirtualMassive(m, v)
		if err != nil {
			return false
		}
		for _, row := range boosted.Vals {
			for _, val := range row {
				if val < -1e-12 || val > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExtendMatricesMatchesPerPair drives two identical Incrementals
// through the Streamer's hop pattern, refreshing one with ExtendMatrices
// and the other pair by pair, and requires bit-identical matrices at every
// hop — plus the serial batch oracle over the window.
// Also covers the fast path (repeat call returns the same matrices) and
// duplicate pairs in the request.
func TestExtendMatricesMatchesPerPair(t *testing.T) {
	s := walkSeries(t, false)
	const w = 12
	mk := func() *Incremental {
		inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
		if err != nil {
			t.Fatal(err)
		}
		inc.SetParallelism(1)
		return inc
	}
	multi, perPair := mk(), mk()
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}, {I: 0, J: 1}} // duplicate on purpose
	next, start := 0, 0
	for _, step := range []struct{ app, drop int }{{80, 0}, {25, 25}, {25, 25}, {10, 40}} {
		for k := 0; k < step.app && next < s.NumSlots(); k++ {
			snap := seriesSnapshot(s, next)
			if err := multi.Append(snap); err != nil {
				t.Fatal(err)
			}
			if err := perPair.Append(snap); err != nil {
				t.Fatal(err)
			}
			next++
		}
		multi.DropFront(step.drop)
		perPair.DropFront(step.drop)
		start += step.drop
		if start > next {
			start = next
		}

		got, err := multi.ExtendMatrices(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("ExtendMatrices returned %d matrices for %d pairs", len(got), len(pairs))
		}
		oracle := windowEngine(s, start, next)
		for k, p := range pairs {
			want, err := perPair.ExtendMatrix(p.I, p.J)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "multi-vs-perpair", want, got[k])
			requireIdentical(t, "multi-vs-oracle", oracle.BaseMatrixSerial(p.I, p.J, w), got[k])
		}
		if got[0] != got[3] {
			t.Fatal("duplicate pair must share one matrix")
		}
		// Unchanged window: the fast path returns the same matrices.
		again, err := multi.ExtendMatrices(pairs[:3])
		if err != nil {
			t.Fatal(err)
		}
		for k := range again {
			if again[k] != got[k] {
				t.Fatalf("fast path rebuilt matrix %d", k)
			}
		}
	}

	// Out-of-range pair reports an error.
	if _, err := multi.ExtendMatrices([]PairSpec{{I: 0, J: 99}}); err == nil {
		t.Fatal("out-of-range pair must error")
	}
}

// TestNewIncrementalRejectsBadRate pins the rate check: NaN and ±Inf are
// refused like zero and negative rates.
func TestNewIncrementalRejectsBadRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{100, true}, {0, false}, {-1, false},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		_, err := NewIncremental(tc.rate, 3, 1, 5)
		if (err == nil) != tc.ok {
			t.Errorf("NewIncremental(rate %v): err = %v, want ok=%v", tc.rate, err, tc.ok)
		}
	}
}
