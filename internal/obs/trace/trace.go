// Package trace is RIM's causal frame-lineage layer: a lock-light,
// fixed-capacity ring-buffer event recorder that captures typed pipeline
// events — frame acquisition and ingest, fault injections, TRRS row
// fill/reuse decisions, analysis-stage spans, fusion steps and estimate
// emissions — each stamped with the causal hop ID of the sliding-window
// analysis that consumed it, so a full frame→estimate lineage can be
// reconstructed after the fact.
//
// The package sits on top of internal/obs and follows the same contract:
// a nil *Recorder is valid everywhere and makes every operation a no-op
// (one nil check — no clock reads, no atomics), so un-traced runs pay
// nothing (guarded by TestTraceOverheadGuard at the repo root). Recording
// is wait-free: an event claims a slot with one atomic increment and
// publishes with per-field atomic stores; when the ring is full the oldest
// events are overwritten (drop-oldest semantics — the recorder is a black
// box of the recent past, not a lossless log).
//
// Two consumers are built on the recorder: Chrome/Perfetto trace-event
// JSON export (WriteJSON, served at /debug/rimtrace and dumped by the
// -trace-out flag of rimtrack/rimsim) and the flight recorder (Flight),
// which snapshots the last window of events into a postmortem bundle when
// an estimate degrades, analysis fails, or an antenna dies.
package trace

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Kind enumerates the typed events the pipeline records.
type Kind uint8

const (
	// KindNone is the zero Kind (an empty slot; never emitted).
	KindNone Kind = iota
	// KindFrameAcquired is one packet measured on one NIC during
	// acquisition (csi.Collect). Frame = slot, A = NIC.
	KindFrameAcquired
	// KindPacketLost is one packet lost during acquisition. Frame = slot,
	// A = NIC, B = 1 for injected bursty loss, 0 for baseline i.i.d. loss.
	KindPacketLost
	// KindFault is one injected fault event (faults.Injector). A = fault
	// code (FaultLoss..FaultInterference), B = antenna or NIC index.
	KindFault
	// KindIngest is the span of one snapshot commit into the streamer
	// (validate + substitute + dead detection). Frame = absolute slot.
	KindIngest
	// KindFrameIngest marks one snapshot committed into the streamer.
	// Frame = absolute slot, A = antennas missing/rejected this slot,
	// B = 1 when the slot carried a corrupt (NaN/garbage) row.
	KindFrameIngest
	// KindHop is the span of one sliding-window analysis hop. Hop is the
	// hop ID; A and B are the absolute slot range [A, B) the hop analyzed.
	KindHop
	// KindBuild is the TRRS base-matrix build/extend span of one pipeline
	// construction (within a hop for streams).
	KindBuild
	// KindMovement is the movement-detection stage span of one Process.
	KindMovement
	// KindAlign is the alignment-tracking + reckoning span of one movement
	// segment. Frame = segment start slot (window-local).
	KindAlign
	// KindSegment marks one resolved movement segment. Frame = start slot,
	// A = end slot (window-local), B = core.MotionKind.
	KindSegment
	// KindTRRSFill marks base-matrix rows computed from scratch.
	// Frame = PairCode (or -1 for a bulk multi-pair build), A = rows.
	KindTRRSFill
	// KindTRRSExtend marks one incremental ExtendMatrix decision.
	// Frame = PairCode, A = rows reused (carried over), B = rows stale
	// (invalidated and recomputed).
	KindTRRSExtend
	// KindFusionStep marks one fusion-backend dead-reckoning step.
	// A = input quality in permille; B = particles alive after the step
	// (particle backend) or 1 when the step carried zero-velocity
	// pseudo-measurements (ESKF backend).
	KindFusionStep
	// KindEstimate marks one finalized estimate emission. Frame = absolute
	// slot, A = 1 when degraded, B = core.MotionKind.
	KindEstimate
	// KindLag is the ingest→emit watermark span of one hop: it starts at
	// the ingest of the hop's oldest newly finalized slot and ends at
	// emission. Frame = that slot's absolute index.
	KindLag
	// KindTrigger marks a flight-recorder trigger. A = trigger reason
	// ordinal (index into Reasons).
	KindTrigger
	// KindZUPT marks one zero-velocity (ZUPT) interval resolved by the
	// movement detector. Frame = start slot, A = end slot (exclusive,
	// window-local like KindSegment), B = interval confidence in permille.
	KindZUPT
	// KindQuality marks one estimator-quality verdict: a per-hop streamer
	// quality summary or a quality-monitor state transition (see
	// internal/obs/quality). A = the monitor state ordinal (0 ok, 1 warn,
	// 2 alert), B = the windowed fraction-outside-band in permille.
	KindQuality

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindFrameAcquired: "frame_acquired",
	KindPacketLost:    "packet_lost",
	KindFault:         "fault",
	KindIngest:        "ingest",
	KindFrameIngest:   "frame_ingest",
	KindHop:           "hop",
	KindBuild:         "trrs_build",
	KindMovement:      "movement",
	KindAlign:         "align",
	KindSegment:       "segment",
	KindTRRSFill:      "trrs_fill",
	KindTRRSExtend:    "trrs_extend",
	KindFusionStep:    "fusion_step",
	KindEstimate:      "estimate",
	KindLag:           "lag",
	KindTrigger:       "trigger",
	KindZUPT:          "zupt",
	KindQuality:       "quality",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name (JSON-friendly).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name back into its ordinal.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Fault codes carried in KindFault's A argument.
const (
	FaultLoss int64 = iota + 1
	FaultCorrupt
	FaultDead
	FaultAGC
	FaultInterference
)

// PairCode packs an antenna pair into one int64 Frame argument (decoded by
// PairFromCode); it keeps TRRS events self-describing without a third arg.
func PairCode(i, j int) int64 { return int64(i)<<16 | int64(j)&0xffff }

// PairFromCode decodes PairCode.
func PairFromCode(c int64) (i, j int) { return int(c >> 16), int(c & 0xffff) }

// Event is one recorded event, the ring slot's point-in-time copy.
type Event struct {
	// Seq is the recorder-wide monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Hop is the causal hop ID of the analysis that the event belongs to
	// (-1 for events recorded before any hop claimed them, e.g. ingest).
	Hop int64 `json:"hop"`
	// Frame is the absolute frame/slot ID the event concerns (-1 = n/a).
	// TRRS events reuse it for the PairCode.
	Frame int64 `json:"frame"`
	// T is the event time in nanoseconds since the recorder's epoch; for
	// spans it is the start time.
	T int64 `json:"t_ns"`
	// Dur is the span duration in nanoseconds (0 = instant event).
	Dur int64 `json:"dur_ns"`
	// A, B are kind-specific arguments (see the Kind constants).
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// Recorder is the fixed-capacity ring-buffer event recorder. Events are
// stored structure-of-arrays in atomic slots: a writer claims a sequence
// number with one atomic add, stores the fields, and publishes by storing
// seq+1 into the slot's commit cell. Readers (Snapshot) validate the
// commit cell before and after copying a slot, so a slot overwritten
// mid-read is skipped rather than returned torn.
//
// A nil *Recorder is valid everywhere: every method is a no-op (or returns
// a zero value) after one nil check, exactly like obs.Registry.
type Recorder struct {
	mask  int
	epoch time.Time
	wall  time.Time
	next  atomic.Uint64

	commit []atomic.Uint64
	kind   []atomic.Uint32
	hop    []atomic.Int64
	frame  []atomic.Int64
	t      []atomic.Int64
	dur    []atomic.Int64
	a      []atomic.Int64
	b      []atomic.Int64
}

// DefaultCapacity is the event capacity used when NewRecorder is given a
// non-positive one: at a few dozen events per streamed slot-hop cycle it
// holds minutes of history.
const DefaultCapacity = 1 << 16

// NewRecorder builds a recorder holding the most recent capacity events
// (rounded up to a power of two, minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 16
	for n < capacity {
		n <<= 1
	}
	now := time.Now()
	return &Recorder{
		mask:   n - 1,
		epoch:  now,
		wall:   now,
		commit: make([]atomic.Uint64, n),
		kind:   make([]atomic.Uint32, n),
		hop:    make([]atomic.Int64, n),
		frame:  make([]atomic.Int64, n),
		t:      make([]atomic.Int64, n),
		dur:    make([]atomic.Int64, n),
		a:      make([]atomic.Int64, n),
		b:      make([]atomic.Int64, n),
	}
}

// Cap returns the ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.mask + 1
}

// TotalEmitted returns the number of events ever emitted (0 on nil);
// events beyond Cap have been dropped oldest-first.
func (r *Recorder) TotalEmitted() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// WallEpoch returns the wall-clock time of the recorder's T = 0.
func (r *Recorder) WallEpoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.wall
}

// Now returns the current recorder time in nanoseconds since the epoch
// (0 on nil — callers must not emit timestamps from a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Emit records one instant event stamped now.
func (r *Recorder) Emit(k Kind, hop, frame, a, b int64) {
	if r != nil {
		r.emitNow(k, hop, frame, a, b)
	}
}

// emitNow is Emit's slow path, kept out of line so the nil check above
// inlines into every call site (disabled tracing then costs one compare).
func (r *Recorder) emitNow(k Kind, hop, frame, a, b int64) {
	r.EmitAt(k, hop, frame, a, b, r.Now(), 0)
}

// EmitAt records one event with an explicit start time (nanoseconds since
// the epoch) and duration (0 = instant). It is the primitive behind Emit
// and Span; callers use it to emit spans whose start predates the call
// (e.g. the ingest→emit lag span).
func (r *Recorder) EmitAt(k Kind, hop, frame, a, b, tns, dur int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	i := int(seq) & r.mask
	// Invalidate the slot first so a concurrent Snapshot never sees a mix
	// of the old event's fields and the new one's.
	r.commit[i].Store(0)
	r.kind[i].Store(uint32(k))
	r.hop[i].Store(hop)
	r.frame[i].Store(frame)
	r.t[i].Store(tns)
	r.dur[i].Store(dur)
	r.a[i].Store(a)
	r.b[i].Store(b)
	r.commit[i].Store(seq + 1)
}

// Span is a started duration event; End publishes it with the elapsed
// time. The zero Span (from a nil recorder) is a no-op and performs no
// clock reads.
type Span struct {
	r          *Recorder
	k          Kind
	hop, frame int64
	t0         int64
}

// Start begins a span of the given kind (no-op Span on a nil recorder).
func (r *Recorder) Start(k Kind, hop, frame int64) Span {
	if r == nil {
		return Span{}
	}
	return r.start(k, hop, frame)
}

// start is Start's out-of-line slow path (see emitNow).
func (r *Recorder) start(k Kind, hop, frame int64) Span {
	return Span{r: r, k: k, hop: hop, frame: frame, t0: r.Now()}
}

// End publishes the span with zero args. Safe on the zero Span.
func (s Span) End() { s.EndArgs(0, 0) }

// EndArgs publishes the span with kind-specific args. Safe on the zero
// Span.
func (s Span) EndArgs(a, b int64) {
	if s.r != nil {
		s.end(a, b)
	}
}

// end is EndArgs' out-of-line slow path (see emitNow).
func (s Span) end(a, b int64) {
	s.r.EmitAt(s.k, s.hop, s.frame, a, b, s.t0, s.r.Now()-s.t0)
}

// Snapshot returns the committed events currently in the ring, oldest
// first. Slots being overwritten during the scan are skipped (the ring's
// drop-oldest semantics applied at read time). Nil recorders return nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.next.Load()
	n := r.mask + 1
	start := uint64(0)
	if end > uint64(n) {
		start = end - uint64(n)
	}
	out := make([]Event, 0, end-start)
	for seq := start; seq < end; seq++ {
		i := int(seq) & r.mask
		if r.commit[i].Load() != seq+1 {
			continue // overwritten or mid-write
		}
		ev := Event{
			Seq:   seq,
			Kind:  Kind(r.kind[i].Load()),
			Hop:   r.hop[i].Load(),
			Frame: r.frame[i].Load(),
			T:     r.t[i].Load(),
			Dur:   r.dur[i].Load(),
			A:     r.a[i].Load(),
			B:     r.b[i].Load(),
		}
		if r.commit[i].Load() != seq+1 {
			continue // torn: overwritten while copying
		}
		out = append(out, ev)
	}
	return out
}

// Since returns the committed events whose end time (T + Dur) is at or
// after tns, oldest first — the flight recorder's lookback filter.
func (r *Recorder) Since(tns int64) []Event {
	evs := r.Snapshot()
	lo := 0
	for lo < len(evs) && evs[lo].T+evs[lo].Dur < tns {
		lo++
	}
	return evs[lo:]
}

// Lineage reconstructs the causal chain of one hop from a snapshot: every
// event stamped with the hop ID, plus the pre-hop frame-scoped events
// (acquisition, loss, ingest) whose frame falls inside the hop's analyzed
// slot range (taken from the hop span's [A, B) args, widened by any
// frame-stamped event of the hop). The result is the frame→estimate story
// of that hop, in emission order.
func Lineage(events []Event, hop int64) []Event {
	lo, hi := int64(math.MaxInt64), int64(-1)
	for _, e := range events {
		if e.Hop != hop {
			continue
		}
		if e.Kind == KindHop {
			if e.A < lo {
				lo = e.A
			}
			if e.B > hi {
				hi = e.B
			}
		}
		if f := e.Frame; f >= 0 && e.Kind != KindTRRSFill && e.Kind != KindTRRSExtend {
			if f < lo {
				lo = f
			}
			if f+1 > hi {
				hi = f + 1
			}
		}
	}
	var out []Event
	for _, e := range events {
		switch {
		case e.Hop == hop:
			out = append(out, e)
		case e.Hop < 0 && e.Frame >= lo && e.Frame < hi &&
			(e.Kind == KindFrameAcquired || e.Kind == KindPacketLost ||
				e.Kind == KindFrameIngest || e.Kind == KindIngest):
			out = append(out, e)
		}
	}
	return out
}
