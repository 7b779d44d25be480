package session

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rim/internal/array"
	"rim/internal/core"
)

func testArrayFor(numAnts int) (*array.Array, error) {
	if numAnts != 3 {
		return nil, fmt.Errorf("no array with %d antennas", numAnts)
	}
	return array.NewLinear3(0.029), nil
}

// TestNewCoreFactory exercises the canonical daemon factory: template
// knobs (including the engine's Parallelism) reach every session, the cold and checkpoint-restore paths both produce working
// streams, and an unresolvable antenna count surfaces as an error.
func TestNewCoreFactory(t *testing.T) {
	if _, err := NewCoreFactory(CoreFactoryConfig{}); err == nil {
		t.Fatal("nil ArrayFor must error")
	}
	tmpl := core.StreamConfig{SpanSeconds: 2, HopSeconds: 0.25}
	tmpl.Core.WindowSeconds = 0.3
	tmpl.Core.Parallelism = 1
	factory, err := NewCoreFactory(CoreFactoryConfig{Template: tmpl, ArrayFor: testArrayFor})
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Rate: 100, NumAnts: 3, NumTx: 1, NumSub: 16}
	stream, err := factory("s1", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := factory("s2", Spec{Rate: 100, NumAnts: 5, NumTx: 1, NumSub: 16}, nil); bad == nil {
		t.Fatal("unresolvable antenna count must error")
	}

	// Feed enough random frames to cross a hop boundary; the stream must
	// ingest and analyze without error.
	rng := rand.New(rand.NewSource(9))
	snap := make([][][]complex128, spec.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, spec.NumTx)
		for tx := range snap[a] {
			snap[a][tx] = make([]complex128, spec.NumSub)
		}
	}
	for f := 0; f < 220; f++ {
		for a := range snap {
			for tx := range snap[a] {
				for k := range snap[a][tx] {
					snap[a][tx][k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
		}
		if _, err := stream.PushMaskedCtx(context.Background(), snap, nil); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	if h := stream.Health(); h.Slots != 220 {
		t.Fatalf("health slots = %d, want 220", h.Slots)
	}

	// Restore from the live stream's checkpoint: the factory must route
	// through NewStreamerFromCheckpoint and resume the same timeline.
	cp := stream.Checkpoint()
	if cp == nil {
		t.Fatal("nil checkpoint from live stream")
	}
	restored, err := factory("s1", spec, cp)
	if err != nil {
		t.Fatal(err)
	}
	if h := restored.Health(); h.Slots != 220 {
		t.Fatalf("restored health slots = %d, want 220", h.Slots)
	}
	restored.Flush()
}
