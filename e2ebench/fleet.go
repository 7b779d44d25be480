package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rim/internal/core"
	"rim/internal/session"
)

// Workload sizes. paced-fleet offers 32 × 100 = 3,200 frames/s, about
// 20% of the 2-core capacity saturate-walk measured when the benchmark
// was written (see README.md).
const (
	pacedSessions        = 32
	pacedFaultyEvery     = 8 // one session in 8 replays a faulty walk
	pacedTemplates       = 8
	pacedFaultyTemplates = 2
	pacedConns           = 2
	saturateSessions     = 4
	saturateGenerators   = gomaxprocs
	batchTraces          = 4
	// warmFrames is what every session is sent unpaced before the timed
	// phase: the streamer's first hop fires at 2×guard frames.
	warmFrames = 2 * guardSlots
	// warmAhead is the paced warm-up's flow-control step: after every
	// warmAhead rounds the generator waits until each session has consumed
	// all but the last warmAhead frames, so at most 2×warmAhead = 32 are
	// outstanding, below the degrade policy's 48-frame high watermark.
	warmAhead = 16
	// retrySleep is how long a closed-loop generator waits when every
	// queue it feeds is full.
	retrySleep = time.Millisecond
	// maxRatePerSession bounds the frames a saturating session can take
	// per second (25× what one took when the benchmark was written); it
	// only sizes the timelines' chunk tables.
	maxRatePerSession = 100000
)

// batch is one finalized-estimate batch as delivered to Emit.
type batch struct {
	first, n int   // slots [first, first+n)
	at       int64 // emit time
	trig     int   // frame whose push produced the batch
	flush    bool  // emitted by the closing flush, not by a hop
}

// sessState is one session's bookkeeping. The generator writes a frame's
// due time before the frame leaves it; ests, batches and the wrapper
// fields belong to the session's worker goroutine and are read only after
// the session has closed.
type sessState struct {
	src *source
	idx int

	// Generator side.
	due       *timeline // due (paced) or first-attempt (closed loop) time of frame k
	sentAt    *timeline // when the frame's bytes were flushed to the socket (traced)
	ingestEnd *timeline // when Registry.Ingest returned for the frame (traced)
	sent      int
	retries   int
	snap      [][][]complex128
	miss      []bool

	// Worker side.
	ests        []core.Estimate
	batches     []batch
	pushed      int
	lastPushEnd int64
	lastSeq     int
	log         *spanLog
}

// fleetRun is one daemon lifetime driven by one generator.
type fleetRun struct {
	workload string
	paced    bool
	traced   bool
	d        *daemon
	states   []*sessState
	byID     map[string]*sessState

	flushing     atomic.Bool
	firstBatches atomic.Int64

	genLogs  []*spanLog
	connLogs []*spanLog
	late     []int64 // generator lateness samples, ns

	// tStart and tEnd bound the timed phase's schedule; tStop is when the
	// generators actually stopped sending (at or just after tEnd).
	tStart, tEnd, tStop int64
	heap                heapStats
	heapBase            uint64  // live heap before the timed daemon was built
	scrape              float64 // seconds per Registry.Snapshot
	// Counters read from the daemon before the sessions close.
	dropped, degradeFlips map[string]uint64
}

func newFleetRun(workload string, in *inputs, seconds float64, traced bool) *fleetRun {
	r := &fleetRun{workload: workload, paced: workload == "paced-fleet", traced: traced, byID: map[string]*sessState{}}
	maxFrames := warmFrames + int(seconds*rate) + 16
	if !r.paced {
		maxFrames = warmFrames + int(seconds*maxRatePerSession)
	}
	for i, src := range in.sources {
		st := &sessState{src: src, idx: i, due: newTimeline(maxFrames), lastSeq: -1}
		st.snap, st.miss = src.newFrame()
		if traced {
			st.sentAt = newTimeline(maxFrames)
			st.ingestEnd = newTimeline(maxFrames)
			st.log = &spanLog{}
		}
		r.states = append(r.states, st)
		r.byID[src.id] = st
	}
	return r
}

// emit is session.Config.Emit: it runs on the session's worker goroutine
// right after the push that finalized the batch (or inside the closing
// flush).
func (r *fleetRun) emit(id string, ests []core.Estimate) {
	at := now()
	st := r.byID[id]
	if st == nil || len(ests) == 0 {
		return
	}
	b := batch{first: slotOf(ests[0]), n: len(ests), at: at, flush: r.flushing.Load()}
	if st.log != nil {
		// The wrapper saw the push that produced this batch.
		b.trig = st.lastSeq
		if !b.flush {
			st.log.add(spanRecord, st.idx, st.lastSeq, st.lastPushEnd, at)
		}
	} else {
		// A hop finalizes every slot older than the guard region of the
		// frame that triggered it.
		b.trig = slotOf(ests[len(ests)-1]) + guardSlots
	}
	if len(st.batches) == 0 {
		r.firstBatches.Add(1)
	}
	st.batches = append(st.batches, b)
	st.ests = append(st.ests, ests...)
}

func slotOf(e core.Estimate) int { return int(math.Round(e.T * rate)) }

// wrapFactory is the traced run's factory wrapper: every stream is timed
// at its PushMaskedCtx boundary.
func (r *fleetRun) wrapFactory(f session.StreamFactory) session.StreamFactory {
	return func(id string, spec session.Spec, cp *core.StreamCheckpoint) (session.Stream, error) {
		s, err := f(id, spec, cp)
		if err != nil {
			return nil, err
		}
		st := r.byID[id]
		if st == nil {
			return s, nil
		}
		return &tracedStream{Stream: s, st: st}, nil
	}
}

// tracedStream times a session stream. The session layer type-asserts
// the optional SetHopFactor and SetPerStreamObs hooks, so the wrapper
// forwards both: without them the degrade policy and the per-session lag
// histogram would silently switch off in the traced run.
type tracedStream struct {
	session.Stream
	st *sessState
}

func (w *tracedStream) PushMaskedCtx(ctx context.Context, snap [][][]complex128, missing []bool) ([]core.Estimate, error) {
	st := w.st
	k := st.pushed
	st.pushed++
	t0 := now()
	if st.log != nil {
		q := st.ingestEnd.load(k)
		if q == 0 || q > t0 {
			q = t0
		}
		st.log.add(spanQueue, st.idx, k, q, t0)
	}
	ests, err := w.Stream.PushMaskedCtx(ctx, snap, missing)
	t1 := now()
	if len(ests) > 0 || err != nil {
		st.log.add(spanHop, st.idx, k, t0, t1)
	} else {
		st.log.add(spanPush, st.idx, k, t0, t1)
	}
	st.lastPushEnd, st.lastSeq = t1, k
	return ests, err
}

func (w *tracedStream) SetHopFactor(f int) {
	if hs, ok := w.Stream.(interface{ SetHopFactor(int) }); ok {
		hs.SetHopFactor(f)
	}
}

func (w *tracedStream) SetPerStreamObs(po core.PerStreamObs) {
	if ps, ok := w.Stream.(interface{ SetPerStreamObs(core.PerStreamObs) }); ok {
		ps.SetPerStreamObs(po)
	}
}

// policy is rimserved's default (degrade) for the paced fleet and reject
// for the closed loop, whose generator retries instead of losing frames.
func (r *fleetRun) policy() session.Policy {
	if r.paced {
		return session.Degrade
	}
	return session.Reject
}

// start builds the daemon and opens every session.
func (r *fleetRun) start() error {
	var wrap func(session.StreamFactory) session.StreamFactory
	if r.traced {
		wrap = r.wrapFactory
	}
	d, err := newDaemon(r.policy(), r.emit, wrap)
	if err != nil {
		return err
	}
	r.d = d
	return nil
}

// waitFirstBatches blocks until every session has emitted a batch.
func (r *fleetRun) waitFirstBatches(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.firstBatches.Load() < int64(len(r.states)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d sessions emitted no estimate within %v", len(r.states)-int(r.firstBatches.Load()), len(r.states), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// endPhase closes a timed phase once every session has pushed every frame
// it was sent (so the hops those frames trigger have run, and the
// workers' records are ordered before the reads below through the
// session's health lock): it stops the heap sampler and reads the live
// heap the daemon holds at load.
func (r *fleetRun) endPhase(heap *heapSampler, rt0 runtimeDelta, out *streamOutcome) error {
	for _, st := range r.states {
		if err := r.waitConsumed([]*sessState{st}, st.sent); err != nil {
			return err
		}
	}
	out.rt = readRuntime().sub(rt0)
	r.heap = heap.finish(true)
	r.heap.live -= min(r.heap.live, r.heapBase+r.recordBytes())
	return nil
}

// recordBytes is the heap the benchmark's own per-frame records hold —
// captured estimates and batches, timelines, spans, lateness samples —
// which the daemon's live heap must not be charged for.
func (r *fleetRun) recordBytes() uint64 {
	n := uintptr(cap(r.late)) * unsafe.Sizeof(int64(0))
	logs := append(append([]*spanLog(nil), r.genLogs...), r.connLogs...)
	for _, st := range r.states {
		n += uintptr(cap(st.ests))*unsafe.Sizeof(core.Estimate{}) + uintptr(cap(st.batches))*unsafe.Sizeof(batch{})
		n += st.due.bytes() + st.sentAt.bytes() + st.ingestEnd.bytes()
		logs = append(logs, st.log)
	}
	for _, l := range logs {
		if l != nil {
			n += uintptr(cap(l.spans)) * unsafe.Sizeof(span{})
		}
	}
	return uint64(n)
}

// liveHeapAfterGC forces a collection and returns the live heap.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// waitConsumed blocks until every session in sts has consumed at least n
// frames: pushed them into its stream, or lost them to the degrade
// policy's eviction, after which they will never be pushed.
func (r *fleetRun) waitConsumed(sts []*sessState, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, st := range sts {
		for {
			s := r.d.registry.Get(st.src.id)
			if s != nil && uint64(s.Health().Slots)+r.d.dropped(st.src.id) >= uint64(n) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s consumed fewer than %d frames within 60 s", st.src.id, n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// snapshotSessionCounters reads per-session drop and degrade counters
// while the sessions still hold their labeled children, timing the scrape
// (one Registry.Snapshot with the fleet's labeled families).
func (r *fleetRun) snapshotSessionCounters() {
	r.dropped, r.degradeFlips = map[string]uint64{}, map[string]uint64{}
	var scrapes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		r.d.reg.Snapshot()
		scrapes = append(scrapes, time.Since(t).Seconds())
	}
	r.scrape = median(scrapes)
	for _, m := range r.d.reg.Snapshot() {
		id := m.Labels["session"]
		switch m.Name {
		case "rim_session_frames_dropped_total":
			r.dropped[id] += uint64(m.Value)
		case "rim_session_degrade_transitions_total":
			r.degradeFlips[id] += uint64(m.Value)
		}
	}
}

// heapSampler follows the heap through a timed phase: the peak in-use
// heap (live objects plus garbage not yet collected, which swings with
// GC timing) and the live heap marked by each GC cycle.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	inuse uint64
	// cycleLive is the live heap each GC cycle of the phase marked.
	cycleLive []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		cycles := s[2].Value.Uint64()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.inuse = max(h.inuse, s[1].Value.Uint64())
			if c := s[2].Value.Uint64(); c != cycles {
				cycles = c
				h.cycleLive = append(h.cycleLive, float64(s[0].Value.Uint64()))
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// heapStats is a timed phase's heap outcome.
type heapStats struct {
	// live is the heap the workload holds at load, less what was live
	// before the phase (the generated walks, the batch references) and
	// the benchmark's own per-frame records: for a streaming fleet the
	// live heap after a forced GC at the end of the timed phase (the
	// fleet's working set, read while every session still holds its
	// window); for the batch path, whose working set exists only inside a
	// call, the median over the phase's GC cycles of the live heap each
	// marked (the peak would hang on where in a call the worst cycle
	// happened to land).
	live uint64
	// peakInuse is the peak in-use heap during the phase.
	peakInuse uint64
}

// finish stops the sampler; atEnd forces the GC whose live heap is
// reported.
func (h *heapSampler) finish(atEnd bool) heapStats {
	close(h.stop)
	<-h.done
	hs := heapStats{live: uint64(median(h.cycleLive)), peakInuse: h.inuse}
	if atEnd {
		hs.live = liveHeapAfterGC()
	}
	return hs
}

// streamOutcome is what a streaming workload measured.
type streamOutcome struct {
	setup []float64
	run   *fleetRun
	rt    runtimeDelta
}

// runStreaming runs a streaming workload: setups cold starts (all but the
// last torn down again), then the timed phase on the last daemon.
func runStreaming(workload string, in *inputs, seconds float64, traced bool, setups int) (*streamOutcome, error) {
	out := &streamOutcome{}
	for rep := 0; rep < setups; rep++ {
		var base uint64
		if rep == setups-1 {
			base = liveHeapAfterGC()
		}
		r := newFleetRun(workload, in, seconds, traced)
		r.heapBase = base
		t0 := time.Now()
		var err error
		if r.paced {
			err = r.pacedRun(t0, seconds, rep == setups-1, out)
		} else {
			err = r.closedRun(t0, seconds, rep == setups-1, out)
		}
		if err != nil {
			return nil, err
		}
		out.run = r
	}
	return out, nil
}

// connGen is one generator connection and the sessions it carries.
type connGen struct {
	conn net.Conn
	w    *bufio.Writer
	sts  []*sessState
	log  *spanLog
	late []int64
}

func (g *connGen) send(st *sessState, k int, due int64) error {
	st.due.store(k, due)
	snap, miss := st.src.frame(k, st.snap, st.miss)
	t0 := now()
	if err := session.WriteFrame(g.w, st.src.id, snap, miss); err != nil {
		return err
	}
	g.log.add(spanGenSend, st.idx, k, t0, now())
	st.sent = k + 1
	return nil
}

// flush pushes the buffered frames onto the socket and stamps their
// send-completion time for the wire.read spans.
func (g *connGen) flush(pending [][2]int) error {
	if err := g.w.Flush(); err != nil {
		return err
	}
	if g.log != nil {
		t := now()
		for _, p := range pending {
			g.sts[p[0]].sentAt.store(p[1], t)
		}
	}
	return nil
}

// pacedRun is one paced-fleet daemon lifetime: cold start over loopback
// TCP, then (when timed) an open-loop schedule of 100 Hz per session,
// session phases staggered across one hop.
func (r *fleetRun) pacedRun(t0 time.Time, seconds float64, timed bool, out *streamOutcome) (err error) {
	if err := r.start(); err != nil {
		return err
	}
	l, err := listen(r.d, func() *connTracer {
		if !r.traced {
			return nil
		}
		lg := &spanLog{}
		r.connLogs = append(r.connLogs, lg) // accept loop is the only writer
		return &connTracer{log: lg, byID: r.byID, seq: map[string]int{}}
	})
	if err != nil {
		r.d.shutdown()
		return err
	}
	var gens []*connGen
	defer func() {
		if err != nil {
			for _, g := range gens {
				g.conn.Close()
			}
			l.close()
			r.d.shutdown()
		}
	}()
	for c := 0; c < pacedConns; c++ {
		conn, err := net.Dial("tcp", l.ln.Addr().String())
		if err != nil {
			return err
		}
		g := &connGen{conn: conn, w: bufio.NewWriterSize(conn, 1<<16)}
		if r.traced {
			g.log = &spanLog{}
			r.genLogs = append(r.genLogs, g.log)
		}
		for i := c; i < len(r.states); i += pacedConns {
			g.sts = append(g.sts, r.states[i])
		}
		if err := session.WriteWirePreamble(g.w); err != nil {
			return err
		}
		for _, st := range g.sts {
			if err := session.WriteOpen(g.w, st.src.id, st.src.spec()); err != nil {
				return err
			}
		}
		gens = append(gens, g)
	}
	// Cold start: the warm-up frames go out unpaced, round-robin across
	// sessions, flow-controlled by warmAhead: a deeper burst would cross
	// the degrade policy's high watermark and stretch the first hops, a
	// different program from the one the timed phase measures.
	for _, g := range gens {
		var pending [][2]int
		for k := 0; k < warmFrames; k++ {
			for i, st := range g.sts {
				if err := g.send(st, k, now()); err != nil {
					return err
				}
				pending = append(pending, [2]int{i, k})
			}
			if (k+1)%warmAhead == 0 || k == warmFrames-1 {
				if err := g.flush(pending); err != nil {
					return err
				}
				pending = pending[:0]
				if err := r.waitConsumed(g.sts, k+1-warmAhead); err != nil {
					return err
				}
			}
		}
	}
	if err := r.waitFirstBatches(60 * time.Second); err != nil {
		return err
	}
	out.setup = append(out.setup, time.Since(t0).Seconds())

	if timed {
		period := int64(time.Second / time.Duration(rate))
		r.tStart = now() + int64(50*time.Millisecond)
		r.tEnd = r.tStart + int64(seconds*1e9)
		heap := startHeapSampler()
		rt0 := readRuntime()
		var wg sync.WaitGroup
		errs := make([]error, len(gens))
		for c, g := range gens {
			wg.Add(1)
			go func(c int, g *connGen) {
				defer wg.Done()
				errs[c] = r.pace(g, period)
			}(c, g)
		}
		wg.Wait()
		r.tStop = now()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, g := range gens {
			r.late = append(r.late, g.late...)
		}
		if err := r.endPhase(heap, rt0, out); err != nil {
			return err
		}
	}
	r.snapshotSessionCounters()
	r.flushing.Store(true)
	for _, g := range gens {
		for _, st := range g.sts {
			if err := session.WriteClose(g.w, st.src.id); err != nil {
				return err
			}
		}
		if err := g.w.Flush(); err != nil {
			return err
		}
		g.conn.Close()
	}
	l.close()
	r.d.shutdown()
	return nil
}

// pace sends one connection's frames on schedule until tEnd. Frame k of a
// session is due at tStart + phase + (k - warmFrames) periods; every
// frame already due is written before the socket is flushed.
func (r *fleetRun) pace(g *connGen, period int64) error {
	next := make([]int, len(g.sts))
	for i := range next {
		next[i] = warmFrames
	}
	dueOf := func(i int) int64 {
		st := g.sts[i]
		return r.tStart + int64(st.src.phase*1e9) + int64(next[i]-warmFrames)*period
	}
	var pending [][2]int
	for {
		first := int64(math.MaxInt64)
		for i := range next {
			if d := dueOf(i); d < first {
				first = d
			}
		}
		if first >= r.tEnd {
			return nil
		}
		if wait := first - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		pending = pending[:0]
		t := now()
		for sent := true; sent; {
			sent = false
			for i, st := range g.sts {
				d := dueOf(i)
				if d > t || d >= r.tEnd || next[i] >= st.due.frames() {
					continue
				}
				if err := g.send(st, next[i], d); err != nil {
					return err
				}
				g.late = append(g.late, now()-d)
				pending = append(pending, [2]int{i, next[i]})
				next[i]++
				sent = true
			}
		}
		if err := g.flush(pending); err != nil {
			return err
		}
	}
}

// closedRun is one saturate-walk daemon lifetime: frames go straight into
// Registry.Ingest; a full queue is retried, so the offered load follows
// what the daemon absorbs.
func (r *fleetRun) closedRun(t0 time.Time, seconds float64, timed bool, out *streamOutcome) (err error) {
	if err := r.start(); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			r.d.shutdown()
		}
	}()
	for _, st := range r.states {
		if _, err := r.d.registry.Open(st.src.id, st.src.spec()); err != nil {
			return err
		}
	}
	own := func(g int) []*sessState {
		var sts []*sessState
		for i := g; i < len(r.states); i += saturateGenerators {
			sts = append(sts, r.states[i])
		}
		return sts
	}
	logs := make([]*spanLog, saturateGenerators)
	if r.traced {
		for g := range logs {
			logs[g] = &spanLog{}
		}
		r.genLogs = logs
	}
	drive := func(until int64, limit int) {
		var wg sync.WaitGroup
		late := make([][]int64, saturateGenerators)
		for g := 0; g < saturateGenerators; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				late[g] = r.feed(own(g), logs[g], until, limit)
			}(g)
		}
		wg.Wait()
		r.late = nil
		for _, l := range late {
			r.late = append(r.late, l...)
		}
	}
	drive(math.MaxInt64, warmFrames)
	if err := r.waitFirstBatches(60 * time.Second); err != nil {
		return err
	}
	out.setup = append(out.setup, time.Since(t0).Seconds())
	if timed {
		r.tStart = now()
		r.tEnd = r.tStart + int64(seconds*1e9)
		heap := startHeapSampler()
		rt0 := readRuntime()
		drive(r.tEnd, math.MaxInt)
		r.tStop = now()
		if err := r.endPhase(heap, rt0, out); err != nil {
			return err
		}
	}
	r.snapshotSessionCounters()
	r.flushing.Store(true)
	for _, st := range r.states {
		if err := r.d.registry.Close(st.src.id); err != nil {
			return err
		}
	}
	r.d.shutdown()
	return nil
}

// feed is one closed-loop generator: round-robin over its sessions,
// pushing each one's next frame until tEnd (or limit frames), retrying a
// session whose queue is full. A frame's due time is its first attempt;
// the returned lateness samples are each accepted frame's wait from its
// first attempt to acceptance.
func (r *fleetRun) feed(sts []*sessState, lg *spanLog, until int64, limit int) (late []int64) {
	attempt := make([]bool, len(sts))
	for {
		progressed, live := false, false
		for i, st := range sts {
			k := st.sent
			if k >= limit || k >= st.due.frames() {
				continue
			}
			live = true
			t0 := now()
			if t0 >= until {
				return late
			}
			if !attempt[i] {
				st.due.store(k, t0)
				attempt[i] = true
			}
			snap, miss := st.src.newFrame()
			snap, miss = st.src.frame(k, snap, miss)
			if err := r.d.registry.Ingest(st.src.id, snap, miss); err != nil {
				st.retries++
				continue
			}
			t1 := now()
			if st.ingestEnd != nil {
				st.ingestEnd.store(k, t1)
			}
			lg.add(spanIngest, st.idx, k, t0, t1)
			late = append(late, t1-st.due.load(k))
			st.sent = k + 1
			attempt[i] = false
			progressed = true
		}
		if !live {
			return late
		}
		if !progressed {
			time.Sleep(retrySleep)
		}
	}
}

// runtimeDelta is the process's allocation and GC work over an interval.
type runtimeDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	cpu            time.Duration
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, cpu: processCPU()}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs, cpu: a.cpu - b.cpu}
}
