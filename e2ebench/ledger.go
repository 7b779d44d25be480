package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/session"
	"rim/internal/trrs"
)

// ledger is the cost of one session's frames replayed through the public
// layer calls the streamer makes, at the streamer's hop cadence:
// trrs.Incremental Append/ExtendMatrices/DropFront, align movement
// detection, pre-detection prominence and DP peak tracking. It also times
// the wire codec, a bulk Engine.BaseMatrices build and the ESKF step on
// the same session's data. Totals are seconds.
type ledger struct {
	frames, hops int
	appended     float64
	extend       float64
	movement     float64
	track        float64
	prominence   float64
	build        float64 // one Engine.BaseMatrices over the session's whole trace
	wireRead     float64
	wireBytes    int
	fusion       float64
	fusionSteps  int
	// rowsFilled is the TRRS rows the replay computed from scratch
	// (rim_trrs_rows_filled_total of its own engine).
	rowsFilled uint64
}

// neededPairs mirrors the pipeline's pair set: every pair of every
// parallel-isometric group plus, for ring arrays, the adjacent pairs.
func neededPairs(arr *array.Array) ([]array.ParallelGroup, []trrs.PairSpec) {
	groups := arr.ParallelGroups(geom.Rad(2), 1e-6)
	var pairs []trrs.PairSpec
	seen := map[trrs.PairSpec]bool{}
	add := func(p array.Pair) {
		ps := trrs.PairSpec{I: p.I, J: p.J}
		if !seen[ps] {
			seen[ps] = true
			pairs = append(pairs, ps)
		}
	}
	for _, g := range groups {
		for _, p := range g.Pairs {
			add(p)
		}
	}
	if arr.NumAntennas() >= 4 {
		for _, p := range arr.AdjacentRing() {
			add(p)
		}
	}
	return groups, pairs
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// ledgerRepeats is how many times the ledger replays the analysis; each
// per-hop row is the median over the repeats, so one slow second of the
// machine does not land in a row.
const ledgerRepeats = 3

// replayLedger replays frames [0, n) of src and times one bulk build of
// its whole trace. ests is the estimate stream the daemon emitted for the
// session (the ESKF input).
func replayLedger(src *source, n int, ests []core.Estimate) (*ledger, error) {
	l := &ledger{frames: n}
	ser := src.tmpl.series
	arr, err := arrayForAnts(ser.NumAnts)
	if err != nil {
		return nil, err
	}
	if err := l.replayWire(src, n); err != nil {
		return nil, err
	}
	_, pairs := neededPairs(arr)
	var reps []*ledger
	for i := 0; i < ledgerRepeats; i++ {
		r, err := replayAnalysis(src, n, arr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	med := func(f func(r *ledger) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	l.hops, l.rowsFilled = reps[0].hops, reps[0].rowsFilled
	l.appended = med(func(r *ledger) float64 { return r.appended })
	l.extend = med(func(r *ledger) float64 { return r.extend })
	l.movement = med(func(r *ledger) float64 { return r.movement })
	l.track = med(func(r *ledger) float64 { return r.track })
	l.prominence = med(func(r *ledger) float64 { return r.prominence })

	eng := trrs.NewEngine(src.series(src.tmpl.slots()))
	t := time.Now()
	eng.BaseMatrices(pairs, int(math.Round(windowSeconds*rate)))
	l.build = since(t)

	l.replayFusion(ests)
	return l, nil
}

// replayAnalysis is one pass of the streamer's per-frame and per-hop
// analysis calls over frames [0, n) of src.
func replayAnalysis(src *source, n int, arr *array.Array) (*ledger, error) {
	l := &ledger{frames: n}
	ser := src.tmpl.series
	cfg := core.DefaultConfig(arr)
	w := int(math.Round(windowSeconds * rate))
	inc, err := trrs.NewIncremental(rate, ser.NumAnts, ser.NumTx, w)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	inc.SetObs(reg)
	groups, pairs := neededPairs(arr)
	span, hop := int(spanSeconds*rate), int(hopSeconds*rate)
	mv := cfg.Movement
	fastMv := mv
	fastMv.SlowLagSeconds = 0
	winLen := int(cfg.HeadingWindowSeconds * rate)
	snap, miss := src.newFrame()
	bufLen, dropped, finalized, pending := 0, 0, 0, 0
	for k := 0; k < n; k++ {
		f, _ := src.frame(k, snap, miss)
		t := time.Now()
		if err := inc.Append(f); err != nil {
			return nil, err
		}
		l.appended += since(t)
		bufLen++
		pending++
		if pending < hop || bufLen < 2*guardSlots {
			continue
		}
		pending = 0
		l.hops++

		t = time.Now()
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			return nil, err
		}
		l.extend += since(t)

		eng, err := inc.EngineView(nil)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		ind := align.MovementIndicator(eng, mv)
		align.MovementIndicator(eng, fastMv)
		l.movement += since(t)

		segs := align.Segments(align.ThresholdWithHysteresis(ind, mv),
			int(cfg.MinSegmentSeconds*rate), int(0.3*rate))
		if len(segs) > 0 {
			gms, err := groupMatrices(inc, groups, cfg.V)
			if err != nil {
				return nil, err
			}
			for _, seg := range segs {
				for w0 := seg[0]; w0 < seg[1]; {
					w1 := w0 + winLen
					if w1 > seg[1] || seg[1]-w1 < winLen/2 {
						w1 = seg[1]
					}
					for _, m := range gms {
						t = time.Now()
						prom := align.Prominence(m, 0)
						l.prominence += since(t)
						peaked := 0
						for s := w0; s < w1; s++ {
							if prom[s] >= cfg.PreDetect.MinProminence {
								peaked++
							}
						}
						if float64(peaked) < cfg.PreDetect.MinFraction*float64(w1-w0) {
							continue
						}
						t = time.Now()
						align.TrackPeaks(m, w0, w1, cfg.Track)
						l.track += since(t)
					}
					w0 = w1
				}
			}
		}

		// Trim like the streamer: keep the span, never past the
		// finalized frontier minus the guard context.
		if up := dropped + bufLen - guardSlots; up > finalized {
			finalized = up
		}
		excess := bufLen - span
		if keep := finalized - dropped - 2*guardSlots; excess > keep {
			excess = keep
		}
		if excess > 0 {
			inc.DropFront(excess)
			dropped += excess
			bufLen -= excess
		}
	}

	l.rowsFilled = reg.Counter("rim_trrs_rows_filled_total", "").Value()
	return l, nil
}

// groupMatrices derives each parallel group's averaged, virtual-massive
// alignment matrix from the incrementally maintained base matrices.
func groupMatrices(inc *trrs.Incremental, groups []array.ParallelGroup, v int) ([]*trrs.Matrix, error) {
	var out []*trrs.Matrix
	for _, g := range groups {
		var ms []*trrs.Matrix
		for _, p := range g.Pairs {
			m, err := inc.ExtendMatrix(p.I, p.J)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		avg, err := trrs.AverageMatrices(ms...)
		if err != nil {
			return nil, err
		}
		vm, err := trrs.VirtualMassive(avg, v)
		if err != nil {
			return nil, err
		}
		out = append(out, vm)
	}
	return out, nil
}

// replayWire encodes frames [0, n) as RIMWIRE1 messages and times
// WireReader.Read decoding them back.
func (l *ledger) replayWire(src *source, n int) error {
	var buf bytes.Buffer
	snap, miss := src.newFrame()
	for k := 0; k < n; k++ {
		f, m := src.frame(k, snap, miss)
		if err := session.WriteFrame(&buf, src.id, f, m); err != nil {
			return err
		}
	}
	l.wireBytes = buf.Len() / n
	wr := session.NewWireReader(bytes.NewReader(buf.Bytes()))
	for k := 0; ; k++ {
		t := time.Now()
		msg, err := wr.Read()
		if err == io.EOF {
			if k != n {
				return fmt.Errorf("wire replay decoded %d of %d frames", k, n)
			}
			return nil
		}
		if err != nil {
			return err
		}
		l.wireRead += since(t)
		if msg.Type != session.MsgFrame || msg.ID != src.id {
			return fmt.Errorf("wire replay decoded message type %d for %q", msg.Type, msg.ID)
		}
	}
}

// replayFusion times the ESKF Step over the estimate stream, with the
// inputs the session layer's fuser derives from each estimate.
func (l *ledger) replayFusion(ests []core.Estimate) {
	fc := fusion.DefaultConfig(1)
	fc.Backend = fusion.BackendESKF
	fc.StepSeconds = 1 / rate
	f := fusion.NewESKF(geom.Pose{}, fc)
	var theta, course float64
	for _, e := range ests {
		theta = geom.NormalizeAngle(theta + e.AngVel/rate)
		in := fusion.Input{ZUPT: !e.Moving && !e.Degraded, Quality: 1}
		if e.Moving {
			in.Quality = 0.5
			if e.Confidence > 0 {
				in.Quality = e.Confidence
			}
		}
		if e.Degraded && in.Quality > 0.3 {
			in.Quality = 0.3
		}
		if e.Moving && e.Kind == core.MotionTranslate && !math.IsNaN(e.HeadingBody) {
			c := geom.NormalizeAngle(theta + e.HeadingBody)
			in.DistDelta = e.Speed / rate
			in.ThetaDelta = geom.NormalizeAngle(c - course)
			course = c
		}
		t := time.Now()
		f.Step(in)
		l.fusion += since(t)
		l.fusionSteps++
	}
}

// row is one named per-hop share of the core hop, seconds.
type row struct {
	name  string
	value float64
}

// ledgerRows splits the core hop mean into the replay's per-hop layer
// rows plus an explicit core.other_s_per_hop, which holds whatever the
// named rows do not: group-matrix derivation, segmentation, reckoning,
// quality telemetry, trace and metric calls, and contention with the
// other sessions. The rows sum to hopMean by construction.
func ledgerRows(l *ledger, hopMean float64) []row {
	h := float64(l.hops)
	if h == 0 {
		h = 1
	}
	rows := []row{
		{"trrs.extend_s_per_hop", l.extend / h},
		{"align.movement_s_per_hop", l.movement / h},
		{"align.track_s_per_hop", l.track / h},
		{"align.prominence_s_per_hop", l.prominence / h},
	}
	other := hopMean
	for _, r := range rows {
		other -= r.value
	}
	return append(rows, row{"core.other_s_per_hop", other})
}
