package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
)

// TestVectorKernelEndToEnd holds the golden 1 m walk to the segments the
// bit-exact sequential TRRS row fill produced before the lag sweep became
// the only production kernel. The sweep agrees with that arithmetic to
// 1e-12 relative per matrix entry; at pipeline scale the segmentation must
// be identical and distance and heading indistinguishable.
func TestVectorKernelEndToEnd(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 42)

	// Recorded from the sequential kernel (seed 42, fastConfig).
	golden := []SegmentResult{
		{Kind: MotionTranslate, Distance: 1.0015915330296683, HeadingBody: 0},
	}
	got, err := ProcessSeries(s, fastConfig(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(golden) {
		t.Fatalf("segments = %d, sequential golden %d", len(got.Segments), len(golden))
	}
	for i, r := range golden {
		g := got.Segments[i]
		if g.Kind != r.Kind {
			t.Fatalf("segment %d kind = %v, sequential golden %v", i, g.Kind, r.Kind)
		}
		if d := math.Abs(g.Distance - r.Distance); d > 1e-6 {
			t.Errorf("segment %d distance drift = %v m, want ≤ 1e-6", i, d)
		}
		if d := math.Abs(geom.AngleDiff(g.HeadingBody, r.HeadingBody)); d > 1e-9 {
			t.Errorf("segment %d heading drift = %v rad, want ≤ 1e-9", i, d)
		}
	}
}
