package trrs

import (
	"fmt"
	"math"

	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
)

// Incremental is the streaming counterpart of Engine: a ring of
// unit-normalized CSI snapshots over a sliding window, plus per-pair base
// matrices that are extended in place as slots arrive instead of being
// recomputed from scratch every analysis hop.
//
// The window is a contiguous absolute slot range [start, end): Append
// grows the tail by one slot, DropFront advances the head. ExtendMatrix
// returns a pair's base matrix over the current window, recomputing only
// the rows whose value can have changed since the last call:
//
//   - the new rows themselves, plus the trailing W rows, whose forward
//     references (t − l with l < 0) now land on freshly appended slots
//     that were out of range — and therefore zero — before;
//   - after a DropFront, the leading W rows, whose backward references
//     now fall off the head of the window.
//
// All other rows are carried over untouched, so a steady-state hop of h
// slots costs O((2W+h)·(2W+1)) TRRS values per pair instead of the full
// window's O(T·(2W+1)). Because every row is produced by the same
// fillRow arithmetic the batch engine uses, the result is bit-for-bit
// identical to Engine.BaseMatrixSerial over a series holding exactly the
// window's snapshots.
//
// Storage is structure-of-arrays and steady-state allocation-free: the
// normalized snapshots live in per-(antenna, tx) re/im planes whose live
// region is slots [head, head+n); Append normalizes into the tail in
// place and, when the tail reaches capacity, compacts the live region to
// the front instead of growing. Each maintained pair matrix ping-pongs
// between two preallocated backings: a refresh copies carried rows from
// the previous generation's buffer and recomputes the stale ones, so once
// the window geometry stabilizes no hop allocates (measured at 0 allocs/op
// by the bench guard with Parallelism 1; the worker pool's goroutine
// fan-out allocates by nature).
//
// Consequently a matrix returned by ExtendMatrix stays valid only until
// the pair's next refresh-producing call (the generation after next
// overwrites its storage); callers must not modify or retain rows across
// hops. Incremental is not goroutine-safe; callers serialize access
// (core.Streamer holds it under its own lock).
type Incremental struct {
	rate   float64
	numTx  int
	numAnt int
	w      int
	par    int
	// tones is the uniform per-snapshot vector length, learned from the
	// first Append (-1 before).
	tones int
	// rePlane[ant][tx] / imPlane[ant][tx] are the SoA ring planes; the
	// live window occupies [head·tones, (head+n)·tones) where
	// n = end − start. len(plane) is always (head+n)·tones.
	rePlane, imPlane [][][]float64
	head             int
	start, end       int
	mats             map[PairSpec]*incMat

	// view is the cached full-array engine ExtendMatrix refreshes in
	// place every call (EngineView allocates fresh ones for external
	// callers); viewAnts is its identity antenna list. staleJobs is the
	// reused stale-row work list and extendOut the reused ExtendMatrices
	// result, so a steady-state hop allocates nothing.
	view      *Engine
	viewAnts  []int
	staleJobs []rowJob
	extendOut []*Matrix

	// Observability handles (nil = unobserved): per-ExtendMatrix rows
	// carried over untouched vs invalidated-and-recomputed, plus the
	// engine-level handles propagated into every EngineView.
	rowsReused, rowsStale *obs.Counter
	rowsFilled            *obs.Counter
	poolGauge             *obs.Gauge
	// trc/hop feed per-ExtendMatrix reuse/stale decisions into the causal
	// trace (propagated into every EngineView); nil = no tracing.
	trc *trace.Recorder
	hop int64
}

// incMat is one maintained pair matrix plus the absolute window
// [start, end) its rows were computed for. Generations ping-pong between
// the two flat backings so a refresh never allocates once both are sized:
// generation g builds in flats[g&1]/rows[g&1] while copying carried rows
// out of the other buffer, and hdr[g&1] is the reused Matrix header.
type incMat struct {
	m          *Matrix
	start, end int
	flats      [2][]float64
	rows       [2][][]float64
	hdr        [2]Matrix
	cur        int
}

// NewIncremental builds an empty incremental engine for CSI with the given
// shape. w is the one-sided lag window of the maintained matrices, in
// slots; it must match the W the analysis will ask for. The rate must be
// positive and finite: a NaN or infinite rate would be stamped on every
// matrix and fail every later consistency check.
func NewIncremental(rate float64, numAnts, numTx, w int) (*Incremental, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("trrs: incremental rate must be positive and finite, got %v", rate)
	}
	if numAnts <= 0 || numTx <= 0 {
		return nil, fmt.Errorf("trrs: incremental shape (%d antennas, %d tx) must be positive", numAnts, numTx)
	}
	if w < 0 {
		return nil, fmt.Errorf("trrs: incremental lag window W=%d must be non-negative", w)
	}
	inc := &Incremental{
		rate:    rate,
		numAnt:  numAnts,
		numTx:   numTx,
		w:       w,
		tones:   -1,
		mats:    map[PairSpec]*incMat{},
		rePlane: make([][][]float64, numAnts),
		imPlane: make([][][]float64, numAnts),
	}
	for a := 0; a < numAnts; a++ {
		inc.rePlane[a] = make([][]float64, numTx)
		inc.imPlane[a] = make([][]float64, numTx)
	}
	return inc, nil
}

// SetParallelism sets the worker count used when refreshing matrices
// (same semantics as Engine.SetParallelism).
func (inc *Incremental) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	inc.par = n
}

// SetObs points the incremental engine's utilization counters at a
// registry: rows reused vs invalidated per ExtendMatrix
// (rim_trrs_rows_reused_total / rim_trrs_rows_stale_total) plus the
// engine-level fill/pool handles inherited by every EngineView. A nil
// registry detaches them.
func (inc *Incremental) SetObs(reg *obs.Registry) {
	if reg == nil {
		inc.rowsReused, inc.rowsStale, inc.rowsFilled, inc.poolGauge = nil, nil, nil, nil
		return
	}
	inc.rowsReused = reg.Counter("rim_trrs_rows_reused_total",
		"base-matrix rows carried over untouched by the incremental engine")
	inc.rowsStale = reg.Counter("rim_trrs_rows_stale_total",
		"base-matrix rows invalidated (head drop / tail extension) and recomputed")
	inc.rowsFilled = reg.Counter("rim_trrs_rows_filled_total",
		"TRRS base-matrix rows computed from scratch")
	inc.poolGauge = reg.Gauge("rim_trrs_pool_workers",
		"worker count of the most recent TRRS pool build")
}

// SetTrace attaches an event recorder: every ExtendMatrix emits a
// trace.KindTRRSExtend event carrying its reuse/stale row split, and the
// recorder is inherited by every EngineView (whose builds emit
// trace.KindTRRSFill). A nil recorder (the default) disables tracing.
func (inc *Incremental) SetTrace(rec *trace.Recorder) { inc.trc = rec }

// SetHop stamps subsequently emitted trace events with the causal hop ID
// of the analysis hop driving this engine.
func (inc *Incremental) SetHop(hop int64) { inc.hop = hop }

// NumSlots returns the current window length.
func (inc *Incremental) NumSlots() int { return inc.end - inc.start }

// W returns the one-sided lag window of the maintained matrices.
func (inc *Incremental) W() int { return inc.w }

// Rate returns the sample rate in Hz.
func (inc *Incremental) Rate() float64 { return inc.rate }

// ensureTail guarantees every plane has room for one more slot after the
// current live region of n slots: extend in place when capacity allows,
// else compact the live region to the front (no allocation), else grow.
// The planes share one growth history, so a single policy decision (taken
// from the first plane) applies to all of them.
func (inc *Incremental) ensureTail(n int) {
	tones := inc.tones
	if tones <= 0 || inc.numAnt == 0 || inc.numTx == 0 {
		return
	}
	need := (inc.head + n + 1) * tones
	c := cap(inc.rePlane[0][0])
	if c >= need {
		return
	}
	if inc.head > 0 && (n+1)*tones <= c {
		// Compact: move the live region to the front of each plane.
		liveLo, liveHi := inc.head*tones, (inc.head+n)*tones
		for a := 0; a < inc.numAnt; a++ {
			for tx := 0; tx < inc.numTx; tx++ {
				p := inc.rePlane[a][tx]
				copy(p[:n*tones], p[liveLo:liveHi])
				inc.rePlane[a][tx] = p[:n*tones]
				p = inc.imPlane[a][tx]
				copy(p[:n*tones], p[liveLo:liveHi])
				inc.imPlane[a][tx] = p[:n*tones]
			}
		}
		inc.head = 0
		return
	}
	// Grow: ~2× the live window, so steady sliding settles into the
	// extend/compact cycle and never grows again.
	newCap := 2 * (n + 1) * tones
	liveLo, liveHi := inc.head*tones, (inc.head+n)*tones
	for a := 0; a < inc.numAnt; a++ {
		for tx := 0; tx < inc.numTx; tx++ {
			np := make([]float64, n*tones, newCap)
			copy(np, inc.rePlane[a][tx][liveLo:liveHi])
			inc.rePlane[a][tx] = np
			np = make([]float64, n*tones, newCap)
			copy(np, inc.imPlane[a][tx][liveLo:liveHi])
			inc.imPlane[a][tx] = np
		}
	}
	inc.head = 0
}

// Append ingests one snapshot (shape [ant][tx][tone]); the rows are copied
// into the SoA ring and normalized with exactly Engine's constructor
// arithmetic, so later matrix queries match a batch engine built over the
// same window. The tone count is learned from the first snapshot; every
// later snapshot must match it (the SoA planes are uniform slabs).
func (inc *Incremental) Append(snapshot [][][]complex128) error {
	if len(snapshot) != inc.numAnt {
		return fmt.Errorf("trrs: incremental snapshot has %d antennas, want %d", len(snapshot), inc.numAnt)
	}
	for a := range snapshot {
		if len(snapshot[a]) != inc.numTx {
			return fmt.Errorf("trrs: incremental snapshot antenna %d has %d tx, want %d",
				a, len(snapshot[a]), inc.numTx)
		}
	}
	if inc.tones < 0 {
		inc.tones = len(snapshot[0][0])
	}
	for a := range snapshot {
		for tx := 0; tx < inc.numTx; tx++ {
			if len(snapshot[a][tx]) != inc.tones {
				return fmt.Errorf("trrs: incremental snapshot antenna %d tx %d has %d tones, want uniform %d",
					a, tx, len(snapshot[a][tx]), inc.tones)
			}
		}
	}
	n := inc.NumSlots()
	inc.ensureTail(n)
	o := (inc.head + n) * inc.tones
	for a := range snapshot {
		for tx := 0; tx < inc.numTx; tx++ {
			reP := inc.rePlane[a][tx][:o+inc.tones]
			imP := inc.imPlane[a][tx][:o+inc.tones]
			dstRe, dstIm := reP[o:], imP[o:]
			for k, c := range snapshot[a][tx] {
				dstRe[k] = real(c)
				dstIm[k] = imag(c)
			}
			sigproc.NormalizeSoA(dstRe, dstIm)
			inc.rePlane[a][tx] = reP
			inc.imPlane[a][tx] = imP
		}
	}
	inc.end++
	return nil
}

// DropFront advances the window head by n slots (ring-buffer trim; the
// slots' storage is reclaimed by a later Append's compaction). The leading
// W rows of every maintained matrix become stale and are refreshed on the
// next ExtendMatrix call.
func (inc *Incremental) DropFront(n int) {
	if n <= 0 {
		return
	}
	if n > inc.NumSlots() {
		n = inc.NumSlots()
	}
	inc.head += n
	inc.start += n
}

// viewInto points e at the current window: plane slices covering slots
// [head, head+n), plus the incremental engine's rate/shape/tuning.
func (inc *Incremental) viewInto(e *Engine, ants []int) error {
	tones := inc.tones
	if tones < 0 {
		tones = 0
	}
	e.rate = inc.rate
	e.numAnts = len(ants)
	e.numTx = inc.numTx
	e.slots = inc.NumSlots()
	e.tones = tones
	e.par = inc.par
	e.rowsFilled = inc.rowsFilled
	e.poolGauge = inc.poolGauge
	e.trc = inc.trc
	e.hop = inc.hop
	lo, hi := inc.head*tones, (inc.head+e.slots)*tones
	for k, a := range ants {
		if a < 0 || a >= inc.numAnt {
			return fmt.Errorf("trrs: EngineView antenna %d out of range [0,%d)", a, inc.numAnt)
		}
		for tx := 0; tx < inc.numTx; tx++ {
			e.re[k][tx] = inc.rePlane[a][tx][lo:hi]
			e.im[k][tx] = inc.imPlane[a][tx][lo:hi]
		}
	}
	return nil
}

// EngineView returns a batch Engine aliasing the window's normalized
// snapshots, restricted to the given antennas (nil means all, in order).
// The view shares storage with the incremental engine and is invalidated
// by the next Append/DropFront (an Append may compact the ring under it);
// it exists so window-scoped consumers (movement detection, self-TRRS)
// run on the incrementally maintained normalization instead of
// renormalizing the window every hop.
func (inc *Incremental) EngineView(ants []int) (*Engine, error) {
	if ants == nil {
		ants = make([]int, inc.numAnt)
		for a := range ants {
			ants[a] = a
		}
	}
	e := inc.newViewShell(len(ants))
	if err := inc.viewInto(e, ants); err != nil {
		return nil, err
	}
	return e, nil
}

// newViewShell allocates an engine shell for viewInto to point at the
// window.
func (inc *Incremental) newViewShell(numAnts int) *Engine {
	e := &Engine{}
	e.re = make([][][]float64, numAnts)
	e.im = make([][][]float64, numAnts)
	for k := range e.re {
		e.re[k] = make([][]float64, inc.numTx)
		e.im[k] = make([][]float64, inc.numTx)
	}
	return e
}

// fullView refreshes (lazily building) the cached all-antenna view used
// by ExtendMatrix, so the steady-state hop allocates nothing.
func (inc *Incremental) fullView() *Engine {
	if inc.view == nil {
		inc.view = inc.newViewShell(inc.numAnt)
		inc.viewAnts = make([]int, inc.numAnt)
		for a := range inc.viewAnts {
			inc.viewAnts[a] = a
		}
	}
	// The identity view can't fail: every antenna index is in range.
	if err := inc.viewInto(inc.view, inc.viewAnts); err != nil {
		panic(err)
	}
	return inc.view
}

// ExtendMatrix returns the base TRRS matrix of antenna pair (i, j) over
// the current window, extending the maintained matrix with only the rows
// invalidated since the last call (see the type comment for the scheme).
// Antenna indices are absolute. Rows of the returned matrix are owned by
// the engine: callers must not modify them, and the matrix is overwritten
// two refreshes later (see the type comment on storage reuse).
func (inc *Incremental) ExtendMatrix(i, j int) (*Matrix, error) {
	if i < 0 || i >= inc.numAnt || j < 0 || j >= inc.numAnt {
		return nil, fmt.Errorf("trrs: ExtendMatrix pair (%d,%d) out of range [0,%d)", i, j, inc.numAnt)
	}
	im := inc.matFor(i, j)
	if im.m != nil && im.start == inc.start && im.end == inc.end {
		return im.m, nil
	}
	m, jobs := inc.carry(im, i, j, inc.staleJobs[:0])
	inc.staleJobs = jobs
	inc.fullView().fillRowsSharded(m, jobs)
	return m, nil
}

// matFor returns (creating on first use) the maintained state of a pair.
func (inc *Incremental) matFor(i, j int) *incMat {
	key := PairSpec{I: i, J: j}
	im, ok := inc.mats[key]
	if !ok {
		im = &incMat{}
		inc.mats[key] = im
	}
	return im
}

// carry advances pair (i, j)'s maintained matrix to the current window:
// it sizes the next-generation backing, copies every row still valid from
// the previous generation, appends one job per stale row to jobs, commits
// the generation swap and the reuse/stale accounting, and returns the new
// matrix with its stale rows NOT yet computed — the caller fills them.
func (inc *Incremental) carry(im *incMat, i, j int, jobs []rowJob) (*Matrix, []rowJob) {
	tSlots := inc.NumSlots()
	width := 2*inc.w + 1
	nxt := 1 - im.cur
	flat := im.flats[nxt]
	if cap(flat) < tSlots*width {
		flat = make([]float64, tSlots*width)
	}
	flat = flat[:tSlots*width]
	rows := im.rows[nxt]
	if cap(rows) < tSlots {
		rows = make([][]float64, tSlots)
	}
	rows = rows[:tSlots]

	m := &im.hdr[nxt]
	nStale := 0
	for t := 0; t < tSlots; t++ {
		row := flat[t*width : (t+1)*width]
		rows[t] = row
		r := inc.start + t // absolute slot of this row
		valid := im.m != nil && r < im.end
		// A head advance zeroes backward references of the leading W rows.
		if valid && inc.start > im.start && r < inc.start+inc.w {
			valid = false
		}
		// A tail extension unzeroes forward references of rows within W of
		// the old end.
		if valid && inc.end > im.end && r >= im.end-inc.w {
			valid = false
		}
		if valid {
			copy(row, im.m.Vals[r-im.start])
		} else {
			jobs = append(jobs, rowJob{m: m, t0: t, t1: t + 1})
			nStale++
		}
	}

	*m = Matrix{I: i, J: j, W: inc.w, Rate: inc.rate, Vals: rows}
	inc.rowsReused.Add(uint64(tSlots - nStale))
	inc.rowsStale.Add(uint64(nStale))
	if inc.trc != nil {
		inc.trc.Emit(trace.KindTRRSExtend, inc.hop, trace.PairCode(i, j),
			int64(tSlots-nStale), int64(nStale))
	}
	im.flats[nxt] = flat
	im.rows[nxt] = rows
	im.cur = nxt
	im.m, im.start, im.end = m, inc.start, inc.end
	return m, jobs
}

// ExtendMatrices is ExtendMatrix over a list of pairs: it advances every
// listed pair's matrix to the current window, one pair at a time, and
// returns them in order. The result slice is reused by the next call, and
// the matrices obey ExtendMatrix's ownership rules.
func (inc *Incremental) ExtendMatrices(pairs []PairSpec) ([]*Matrix, error) {
	out := inc.extendOut[:0]
	for _, p := range pairs {
		m, err := inc.ExtendMatrix(p.I, p.J)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	inc.extendOut = out
	return out, nil
}
