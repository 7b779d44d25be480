//go:build !race

// The steady-state allocation guard is meaningless under the race
// detector (instrumentation allocates), hence the build tag.

package trrs

import (
	"math/rand"
	"testing"
)

// TestIncrementalHopAllocFree pins the zero-allocation contract of the
// streaming hot path: once the window geometry has stabilized, a full hop
// — append hop slots, drop hop slots, refresh the pair matrix — performs
// no allocation at Parallelism 1 (the single-core hot path; the worker
// pool's goroutine fan-out inherently allocates). This is what lets the
// 200 Hz steady state run GC-quiet.
func TestIncrementalHopAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randomSeries(rng, 3, 2, 30, 400)
	const w, hop = 50, 50
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetParallelism(1)

	// Pre-extract the snapshots: the harness must not allocate either.
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		t.Fatal(err)
	}

	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		if _, err := inc.ExtendMatrix(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: size both ping-pong generations, the ring's growth, and
	// the stale-row scratch; run past one ring compaction.
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	if avg := testing.AllocsPerRun(20, hopOnce); avg != 0 {
		t.Fatalf("steady-state hop allocates %.1f times per op, want 0", avg)
	}
}

// TestExtendMatrixReusesBacking pins the satellite contract directly: with
// unchanged geometry ExtendMatrix returns the same matrix (no rebuild),
// and across a hop the refreshed matrix reuses one of the two ping-pong
// backings instead of allocating fresh rows.
func TestExtendMatrixReusesBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSeries(rng, 2, 1, 12, 120)
	const w, hop = 10, 20
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetParallelism(1)
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := inc.ExtendMatrix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1again, err := inc.ExtendMatrix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m1again {
		t.Fatal("unchanged geometry must return the maintained matrix, not a rebuild")
	}

	// Two hops: generation 2 must land back in generation 0's backing.
	hopOnce := func() *Matrix {
		for n := 0; n < hop; n++ {
			if err := inc.Append(seriesSnapshot(s, n)); err != nil {
				t.Fatal(err)
			}
		}
		inc.DropFront(hop)
		m, err := inc.ExtendMatrix(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m2 := hopOnce()
	if &m2.Vals[0][0] == &m1.Vals[0][0] {
		t.Fatal("consecutive generations must not share backing (callers hold the previous one)")
	}
	m3 := hopOnce()
	if &m3.Vals[0][0] != &m1.Vals[0][0] {
		t.Fatal("generation n+2 must reuse generation n's backing (ping-pong)")
	}
	if m3 != m1 {
		t.Fatal("generation n+2 must reuse generation n's Matrix header")
	}
}

// TestExtendMatricesAllocFree extends the zero-allocation contract to the
// multi-pair refresh: once the window geometry and the reused result
// slice have warmed up, a hop that refreshes all three pairs through
// ExtendMatrices performs no allocation at Parallelism 1.
func TestExtendMatricesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randomSeries(rng, 3, 2, 30, 400)
	const w, hop = 50, 50
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetParallelism(1)
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}

	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrices(pairs); err != nil {
		t.Fatal(err)
	}

	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	if avg := testing.AllocsPerRun(20, hopOnce); avg != 0 {
		t.Fatalf("steady-state batched hop allocates %.1f times per op, want 0", avg)
	}
}
