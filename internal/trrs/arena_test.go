package trrs

import (
	"math"
	"math/rand"
	"testing"
)

// arenaGeneration derives one hop's matrices the way the streaming
// pipeline does: pair-average two base matrices, then virtual-massive
// smooth the average and a third base matrix.
func arenaGeneration(t *testing.T, a *MatrixArena, bases []*Matrix, v int) []*Matrix {
	t.Helper()
	avg, err := AverageMatricesInto(a, bases[0], bases[1])
	if err != nil {
		t.Fatal(err)
	}
	vmAvg, err := VirtualMassiveInto(a, avg, v)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := VirtualMassiveInto(a, bases[2], v)
	if err != nil {
		t.Fatal(err)
	}
	return []*Matrix{avg, vmAvg, vm}
}

// TestMatrixArenaReuseMatchesFresh pins the two promises the pooled hop
// scratch rests on: a recycled slab never leaks its previous contents
// (the derived matrices built through a dirtied, Reset arena are bitwise
// equal to freshly allocated ones), and a second generation of the same
// geometry is served entirely from recycled slabs (Bytes does not grow).
func TestMatrixArenaReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(randomSeries(rng, 3, 2, 30, 160))
	const w, v = 20, 6
	bases := []*Matrix{e.BaseMatrix(0, 1, w), e.BaseMatrix(1, 2, w), e.BaseMatrix(0, 2, w)}
	want := arenaGeneration(t, nil, bases, v)

	var a MatrixArena
	for _, m := range arenaGeneration(t, &a, bases, v) {
		for _, row := range m.Vals {
			for c := range row {
				row[c] = math.NaN() // the next borrower must overwrite every cell
			}
		}
	}
	held := a.Bytes()
	if held == 0 {
		t.Fatal("arena holds no backing after one generation")
	}
	a.Reset()
	got := arenaGeneration(t, &a, bases, v)
	if b := a.Bytes(); b != held {
		t.Errorf("second generation grew the arena: %d -> %d bytes", held, b)
	}
	for k := range want {
		if got[k].I != want[k].I || got[k].J != want[k].J || got[k].W != want[k].W ||
			got[k].Rate != want[k].Rate || len(got[k].Vals) != len(want[k].Vals) {
			t.Fatalf("matrix %d header differs: got (%d,%d,W=%d,%v Hz,%d slots), want (%d,%d,W=%d,%v Hz,%d slots)",
				k, got[k].I, got[k].J, got[k].W, got[k].Rate, len(got[k].Vals),
				want[k].I, want[k].J, want[k].W, want[k].Rate, len(want[k].Vals))
		}
		for ti, row := range want[k].Vals {
			for c, x := range row {
				if y := got[k].Vals[ti][c]; math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("matrix %d [%d][%d] = %v through the reused arena, want %v", k, ti, c, y, x)
				}
			}
		}
	}
}
