package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"
)

// epoch anchors the benchmark clock; every timestamp is nanoseconds since
// it (monotonic).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanKind names the layer boundaries the benchmark owns. A frame's spans
// chain in this order, each the parent of the next, and share the frame's
// id (session index, frame sequence number).
type spanKind uint8

const (
	spanGenSend spanKind = iota
	spanWireRead
	spanIngest
	spanQueue
	spanPush
	spanHop
	spanRecord
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"gen.send", "wire.read", "session.ingest", "session.queue", "core.push", "core.hop", "session.record",
}

// parentOf is the span that causes k (numSpanKinds for a root).
var parentOf = [numSpanKinds]spanKind{
	spanGenSend:  numSpanKinds,
	spanWireRead: spanGenSend,
	spanIngest:   spanWireRead,
	spanQueue:    spanIngest,
	spanPush:     spanQueue,
	spanHop:      spanQueue,
	spanRecord:   spanHop,
}

type span struct {
	kind       spanKind
	sess, seq  int32
	start, end int64
}

// spanLog is one goroutine's in-memory span buffer; a nil log records
// nothing (the untraced run).
type spanLog struct{ spans []span }

func (l *spanLog) add(k spanKind, sess, seq int, start, end int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{kind: k, sess: int32(sess), seq: int32(seq), start: start, end: end})
}

// durations returns the durations (seconds) of every span of kind k.
func durations(logs []*spanLog, k spanKind) []float64 {
	var out []float64
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			if s.kind == k {
				out = append(out, float64(s.end-s.start)/1e9)
			}
		}
	}
	return out
}

// writeSpans writes every span as CSV (name, id, parent, start, duration)
// to path, replacing the file of the previous run.
func writeSpans(path string, ids []string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var present [numSpanKinds + 1]bool
	for _, l := range logs {
		if l != nil {
			for _, s := range l.spans {
				present[s.kind] = true
			}
		}
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,id,parent,start_ns,dur_ns")
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			// The nearest recorded ancestor: workloads that bypass the
			// wire have no gen.send or wire.read spans.
			p := parentOf[s.kind]
			for p < numSpanKinds && !present[p] {
				p = parentOf[p]
			}
			parent := ""
			if p < numSpanKinds {
				parent = spanNames[p]
			}
			fmt.Fprintf(w, "%s,%s/%d,%s,%d,%d\n", spanNames[s.kind], ids[s.sess], s.seq, parent, s.start, s.end-s.start)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connTracer records the daemon-side spans of one connection's ingest
// loop; nil in the untraced run.
type connTracer struct {
	log  *spanLog
	byID map[string]*sessState
	seq  map[string]int
}

func (t *connTracer) now() int64 {
	if t == nil {
		return 0
	}
	return now()
}

// frame records one frame's wire.read [t0, t1] and session.ingest
// [t1, t2]. The read span starts no earlier than the generator finished
// sending the frame, so it excludes the loop's idle wait for data.
func (t *connTracer) frame(id string, t0, t1, t2 int64) {
	if t == nil {
		return
	}
	st := t.byID[id]
	if st == nil {
		return
	}
	k := t.seq[id]
	t.seq[id] = k + 1
	if k >= st.ingestEnd.frames() {
		return
	}
	if sent := st.sentAt.load(k); sent > t0 && sent < t1 {
		t0 = sent
	}
	st.ingestEnd.store(k, t2)
	t.log.add(spanWireRead, st.idx, k, t0, t1)
	t.log.add(spanIngest, st.idx, k, t1, t2)
}

// timeline holds one timestamp per frame of a session. It grows in
// chunks, so its memory follows the frames the session handles, and
// publishes each chunk atomically: one goroutine writes a frame's entry,
// others (the wire reader, the session worker) may read it concurrently.
// A missing entry reads as 0.
type timeline struct {
	chunks []atomic.Pointer[[timelineChunk]atomic.Int64]
}

const timelineChunk = 4096

func newTimeline(maxFrames int) *timeline {
	return &timeline{chunks: make([]atomic.Pointer[[timelineChunk]atomic.Int64], (maxFrames+timelineChunk-1)/timelineChunk)}
}

// frames is the timeline's capacity.
func (t *timeline) frames() int {
	if t == nil {
		return 0
	}
	return len(t.chunks) * timelineChunk
}

// store sets frame k's entry; only one goroutine may store into a
// timeline.
func (t *timeline) store(k int, v int64) {
	c := t.chunks[k/timelineChunk].Load()
	if c == nil {
		c = new([timelineChunk]atomic.Int64)
		t.chunks[k/timelineChunk].Store(c)
	}
	c[k%timelineChunk].Store(v)
}

// bytes is the memory the timeline's allocated chunks hold.
func (t *timeline) bytes() uintptr {
	if t == nil {
		return 0
	}
	var n uintptr
	for i := range t.chunks {
		if t.chunks[i].Load() != nil {
			n += unsafe.Sizeof([timelineChunk]atomic.Int64{})
		}
	}
	return n
}

func (t *timeline) load(k int) int64 {
	if k < 0 || k >= t.frames() {
		return 0
	}
	c := t.chunks[k/timelineChunk].Load()
	if c == nil {
		return 0
	}
	return c[k%timelineChunk].Load()
}
