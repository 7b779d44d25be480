package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"rim/internal/core"
	"rim/internal/session"
)

// TestInputsRepeatPerSeed: the same seed generates bit-identical frames,
// another seed different ones, for every workload.
func TestInputsRepeatPerSeed(t *testing.T) {
	for _, w := range []string{"paced-fleet", "saturate-walk", "batch-replay"} {
		a, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		if a.digest(n) != b.digest(n) {
			t.Errorf("%s: seed 7 generated different frames on two calls", w)
		}
		if a.digest(n) == c.digest(n) {
			t.Errorf("%s: seeds 7 and 8 generated identical frames", w)
		}
	}
}

// burstSession opens one session on a degrade-policy daemon built with
// wrap and pushes a burst deeper than the 48-frame high watermark, then
// enough frames for several hops. It returns the stream's hop factor
// right after the burst and the session's lag-histogram sample count.
func burstSession(t *testing.T, wrap func(session.StreamFactory) session.StreamFactory, inner func() *core.Streamer) (hopFactor int, lagCount uint64) {
	t.Helper()
	in, err := makeInputs("saturate-walk", 1)
	if err != nil {
		t.Fatal(err)
	}
	src := in.sources[0]
	d, err := newDaemon(session.Degrade, nil, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	if _, err := d.registry.Open(src.id, src.spec()); err != nil {
		t.Fatal(err)
	}
	push := func(k int) {
		snap, miss := src.newFrame()
		snap, miss = src.frame(k, snap, miss)
		if err := d.registry.Ingest(src.id, snap, miss); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < queueCap; k++ {
		push(k)
	}
	var degradeFlips uint64
	for _, m := range d.reg.Snapshot() {
		if m.Name == "rim_session_degrade_transitions_total" && m.Labels["session"] == src.id {
			degradeFlips = uint64(m.Value)
		}
	}
	st := inner()
	if st == nil {
		t.Fatal("factory wrapper never built a stream")
	}
	hopFactor = st.HopFactor()
	// Keep the queue shallow from here on so the hops run at the
	// restored cadence and feed the lag histogram.
	for k := queueCap; k < 6*queueCap; k++ {
		for d.registry.Get(src.id).QueueDepth() > 8 {
			time.Sleep(time.Millisecond)
		}
		push(k)
	}
	deadline := time.Now().Add(30 * time.Second)
	for d.registry.Get(src.id).Estimates() < 3*int(hopSeconds*rate) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range d.reg.Snapshot() {
		if m.Name == "rim_session_lag_seconds" && m.Labels["session"] == src.id {
			lagCount = m.Count
		}
	}
	if degradeFlips == 0 {
		t.Fatal("the burst did not cross the degrade high watermark")
	}
	return hopFactor, lagCount
}

// streamCapture hands the stream a factory built on the session's worker
// goroutine to the test goroutine.
type streamCapture struct {
	mu sync.Mutex
	s  *core.Streamer
}

func (c *streamCapture) set(s session.Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s, _ = s.(*core.Streamer)
}

// get waits briefly for the worker to build its stream.
func (c *streamCapture) get() *core.Streamer {
	for i := 0; i < 1000; i++ {
		c.mu.Lock()
		s := c.s
		c.mu.Unlock()
		if s != nil {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TestTracedWrapperKeepsOptionalHooks: through the traced run's factory
// wrapper, the degrade policy still stretches the stream's hop and the
// per-session lag histogram still fills. A wrapper that only embeds the
// Stream interface loses both, which is what the test guards against.
func TestTracedWrapperKeepsOptionalHooks(t *testing.T) {
	in, err := makeInputs("saturate-walk", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newFleetRun("saturate-walk", &inputs{sources: in.sources[:1]}, 1, true)
	var built streamCapture
	wrap := func(f session.StreamFactory) session.StreamFactory {
		wf := r.wrapFactory(f)
		return func(id string, spec session.Spec, cp *core.StreamCheckpoint) (session.Stream, error) {
			s, err := wf(id, spec, cp)
			if ts, ok := s.(*tracedStream); ok {
				built.set(ts.Stream)
			}
			return s, err
		}
	}
	hopFactor, lag := burstSession(t, wrap, built.get)
	if hopFactor != 2 {
		t.Errorf("hop factor through the traced wrapper = %d after the burst, want 2 (degrade engaged)", hopFactor)
	}
	if lag == 0 {
		t.Error("per-session lag histogram stayed empty through the traced wrapper")
	}

	type bare struct{ session.Stream }
	var plain streamCapture
	hopFactor, lag = burstSession(t, func(f session.StreamFactory) session.StreamFactory {
		return func(id string, spec session.Spec, cp *core.StreamCheckpoint) (session.Stream, error) {
			s, err := f(id, spec, cp)
			plain.set(s)
			return bare{s}, err
		}
	}, plain.get)
	if hopFactor != 1 || lag != 0 {
		t.Errorf("control wrapper without the hooks: hop factor %d, lag samples %d; want 1 and 0", hopFactor, lag)
	}
}

// TestLedgerRowsSumToHopMean: a traced closed-loop run's per-layer report
// splits the core hop mean into the ledger rows plus core.other_s_per_hop
// exactly, other is not negative, and the ledger agrees with the
// program's own stage timers and row counters (checkLedger).
func TestLedgerRowsSumToHopMean(t *testing.T) {
	in, err := makeInputs("saturate-walk", 3)
	if err != nil {
		t.Fatal(err)
	}
	one := &inputs{sources: in.sources[:1]}
	o, err := runStreaming("saturate-walk", one, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := o.run.states[0]
	l, err := replayLedger(st.src, min(st.pushed, maxLedgerFrames), st.ests)
	if err != nil {
		t.Fatal(err)
	}
	if l.hops == 0 || l.extend <= 0 || l.movement <= 0 {
		t.Fatalf("ledger replay measured nothing: %+v", l)
	}
	m := streamLayerMetrics(o, l)
	hopMean := m["core.hop_mean_s"].Value
	if hopMean <= 0 {
		t.Fatalf("core.hop_mean_s = %v", hopMean)
	}
	var sum float64
	for _, name := range []string{"trrs.extend_s_per_hop", "align.movement_s_per_hop",
		"align.track_s_per_hop", "align.prominence_s_per_hop", "core.other_s_per_hop"} {
		v, ok := m[name]
		if !ok {
			t.Fatalf("per-layer report lacks %s", name)
		}
		sum += v.Value
	}
	if math.Abs(sum-hopMean) > 1e-12*hopMean {
		t.Errorf("ledger rows sum to %v s, core hop mean is %v s", sum, hopMean)
	}
	if err := checkLedger(m, l).err(); err != nil {
		t.Error(err)
	}
}
