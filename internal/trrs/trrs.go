// Package trrs implements the Time-Reversal Resonating Strength machinery
// of the paper (§3.2): the TRRS similarity between channel snapshots
// (Eq. 1/2), its average over transmit antennas for effective-bandwidth
// expansion (Eq. 3), the virtual-massive-antenna boost that averages a
// window of consecutive snapshots (Eq. 4), and the sliding-window TRRS
// (alignment) matrices between antenna pairs (Eq. 5).
//
// Performance note: Eq. 4's virtual-massive TRRS over a window of V virtual
// antennas is a box filter in time applied to the pairwise "base" TRRS
// matrix base[t][l] = κ̄(H_i(t), H_j(t−l)). The engine therefore computes
// each pair's base matrix once — O(T·(2W+1)·N·S) — and derives any V by an
// O(T·(2W+1)) box filter, instead of the naive O(T·(2W+1)·V·N·S).
//
// The normalized snapshots are stored structure-of-arrays: one contiguous
// re plane and one im plane per (antenna, tx), with slot t occupying
// [t·tones, (t+1)·tones). A base-matrix row's lag sweep walks consecutive
// slots of one plane, so each row is one sigproc.DotSqSweepSoA call per tx
// (AVX2+FMA assembly where available) instead of one kernel call per
// entry chasing per-slot []complex128 pointers. The sweep reassociates the
// inner product, so matrix entries agree with the seed's []complex128
// arithmetic to 1e-12 relative; point queries (Base, SelfSeries) keep the
// seed's summation order bit for bit (sigproc.DotSqSoA). See DESIGN.md,
// "TRRS kernel".
package trrs

import (
	"fmt"
	"math"
	"runtime"

	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
)

// Engine holds unit-normalized CSI vectors so that the TRRS of Eq. 2
// reduces to the squared magnitude of an inner product.
type Engine struct {
	rate    float64
	numAnts int
	numTx   int
	slots   int
	// tones is the per-snapshot vector length; every slot must share it
	// (the SoA planes are uniform slabs).
	tones int
	// re[ant][tx] / im[ant][tx] are the SoA planes of unit-norm CSI:
	// slot t occupies [t*tones, (t+1)*tones).
	re, im [][][]float64
	// par is the worker count for matrix computation: 0 means GOMAXPROCS,
	// 1 means the serial reference path (see SetParallelism).
	par int
	// Observability handles (nil = unobserved, every use a no-op): rows of
	// base matrices computed from scratch, and the pool's effective worker
	// count on the most recent build.
	rowsFilled *obs.Counter
	poolGauge  *obs.Gauge
	// trc/hop feed per-build fill events into the causal trace (nil = no
	// tracing); hop is the causal hop ID stamped on emitted events.
	trc *trace.Recorder
	hop int64
}

// SetParallelism sets the worker count used by BaseMatrix/BaseMatrices:
// 0 (the default) uses GOMAXPROCS workers, 1 forces the serial reference
// path, n > 1 uses exactly n workers. Every entry of a base matrix is an
// independent pure function of the normalized snapshots, so the sharded
// computation is bit-for-bit identical to the serial one at any setting.
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.par = n
}

// Parallelism returns the configured worker count (0 = GOMAXPROCS).
func (e *Engine) Parallelism() int { return e.par }

// SetObs points the engine's utilization counters at a registry: the
// number of base-matrix rows computed from scratch
// (rim_trrs_rows_filled_total) and the worker-pool size of the most recent
// build (rim_trrs_pool_workers). A nil registry detaches them.
func (e *Engine) SetObs(reg *obs.Registry) {
	if reg == nil {
		e.rowsFilled, e.poolGauge = nil, nil
		return
	}
	e.rowsFilled = reg.Counter("rim_trrs_rows_filled_total",
		"TRRS base-matrix rows computed from scratch")
	e.poolGauge = reg.Gauge("rim_trrs_pool_workers",
		"worker count of the most recent TRRS pool build")
}

// SetTrace attaches an event recorder: base-matrix builds emit
// trace.KindTRRSFill events describing the rows computed from scratch. A
// nil recorder (the default) disables tracing at one nil check per build.
func (e *Engine) SetTrace(rec *trace.Recorder) { e.trc = rec }

// SetHop stamps subsequently emitted trace events with the causal hop ID
// of the analysis driving this engine (0 = batch).
func (e *Engine) SetHop(hop int64) { e.hop = hop }

// workers resolves the effective worker count.
func (e *Engine) workers() int {
	if e.par > 0 {
		return e.par
	}
	return runtime.GOMAXPROCS(0)
}

// newEngineShell allocates the SoA planes for the series' shape. tones is
// taken from the first snapshot; the fill loops enforce uniformity.
func newEngineShell(s *csi.Series) *Engine {
	e := &Engine{
		rate:    s.Rate,
		numAnts: s.NumAnts,
		numTx:   s.NumTx,
		slots:   s.NumSlots(),
		re:      make([][][]float64, s.NumAnts),
		im:      make([][][]float64, s.NumAnts),
	}
	if e.slots > 0 && e.numAnts > 0 && e.numTx > 0 {
		e.tones = len(s.H[0][0][0])
	}
	for a := 0; a < e.numAnts; a++ {
		e.re[a] = make([][]float64, e.numTx)
		e.im[a] = make([][]float64, e.numTx)
		for tx := 0; tx < e.numTx; tx++ {
			e.re[a][tx] = make([]float64, e.slots*e.tones)
			e.im[a][tx] = make([]float64, e.slots*e.tones)
		}
	}
	return e
}

// checkTones enforces the uniform-shape requirement of the SoA layout.
func (e *Engine) checkTones(a, tx, t, got int) {
	if got != e.tones {
		panic(fmt.Sprintf("trrs: snapshot (ant %d, tx %d, slot %d) has %d tones, want uniform %d",
			a, tx, t, got, e.tones))
	}
}

// NewEngine precomputes normalized snapshots from a processed CSI series.
// All snapshots must share one tone count (ragged series panic: the TRRS
// of differently-shaped snapshots was already a panic in the kernel).
func NewEngine(s *csi.Series) *Engine {
	e := newEngineShell(s)
	for a := 0; a < e.numAnts; a++ {
		for tx := 0; tx < e.numTx; tx++ {
			reP, imP := e.re[a][tx], e.im[a][tx]
			for t := 0; t < e.slots; t++ {
				src := s.H[a][tx][t]
				e.checkTones(a, tx, t, len(src))
				o := t * e.tones
				for k, c := range src {
					reP[o+k] = real(c)
					imP[o+k] = imag(c)
				}
				sigproc.NormalizeSoA(reP[o:o+e.tones], imP[o:o+e.tones])
			}
		}
	}
	return e
}

// NewAmplitudeEngine builds an engine whose similarity discards phase: the
// stored vectors are per-subcarrier magnitudes (normalized). This is the
// ablation baseline for the TRRS choice — amplitude-only profiles lose the
// time-reversal focusing effect, so their spatial resolution is far worse.
func NewAmplitudeEngine(s *csi.Series) *Engine {
	e := newEngineShell(s)
	for a := 0; a < e.numAnts; a++ {
		for tx := 0; tx < e.numTx; tx++ {
			reP, imP := e.re[a][tx], e.im[a][tx]
			for t := 0; t < e.slots; t++ {
				src := s.H[a][tx][t]
				e.checkTones(a, tx, t, len(src))
				o := t * e.tones
				for k, c := range src {
					re, im := real(c), imag(c)
					reP[o+k] = math.Sqrt(re*re + im*im)
					imP[o+k] = 0
				}
				sigproc.NormalizeSoA(reP[o:o+e.tones], imP[o:o+e.tones])
			}
		}
	}
	return e
}

// Rate returns the sample rate in Hz.
func (e *Engine) Rate() float64 { return e.rate }

// NumSlots returns the number of time slots.
func (e *Engine) NumSlots() int { return e.slots }

// NumAntennas returns the antenna count.
func (e *Engine) NumAntennas() int { return e.numAnts }

// Base returns the tx-averaged TRRS κ̄ (Eq. 3) between antenna i at slot ti
// and antenna j at slot tj. Out-of-range slots yield 0. Point queries use
// the sequential kernel, bit-for-bit the seed arithmetic.
func (e *Engine) Base(i, j, ti, tj int) float64 {
	if ti < 0 || tj < 0 || ti >= e.slots || tj >= e.slots {
		return 0
	}
	oi, oj := ti*e.tones, tj*e.tones
	ri, ii := e.re[i], e.im[i]
	rj, ij := e.re[j], e.im[j]
	var sum float64
	for tx := 0; tx < e.numTx; tx++ {
		sum += sigproc.DotSqSoA(
			ri[tx][oi:oi+e.tones], ii[tx][oi:oi+e.tones],
			rj[tx][oj:oj+e.tones], ij[tx][oj:oj+e.tones])
	}
	return sum / float64(e.numTx)
}

// Matrix is a TRRS (alignment) matrix between one antenna pair: Vals[t][c]
// holds the TRRS of antenna I at slot t against antenna J at slot t−lag,
// where lag = c − W ranges over [−W, W].
type Matrix struct {
	I, J int
	W    int
	Rate float64
	Vals [][]float64
}

// NumSlots returns the time extent of the matrix.
func (m *Matrix) NumSlots() int { return len(m.Vals) }

// Lag converts a column index to a signed lag in slots.
func (m *Matrix) Lag(col int) int { return col - m.W }

// Col converts a signed lag in slots to a column index.
func (m *Matrix) Col(lag int) int { return lag + m.W }

// LagSeconds converts a signed lag in slots to seconds.
func (m *Matrix) LagSeconds(lag int) float64 { return float64(lag) / m.Rate }

// At returns the TRRS at slot t and signed lag (0 outside the window).
func (m *Matrix) At(t, lag int) float64 {
	if t < 0 || t >= len(m.Vals) || lag < -m.W || lag > m.W {
		return 0
	}
	return m.Vals[t][lag+m.W]
}

// fillRow computes one row of the (i, j, w) base matrix into row (len
// 2w+1): row[c] = κ̄(H_i(t), H_j(t−(c−w))), 0 outside the series. It
// overwrites every entry, so rows may be reused.
func (e *Engine) fillRow(row []float64, i, j, w, t int) {
	e.fillRowFrom(row, i, j, w, t, 0)
}

// fillRowFrom computes columns c ∈ [cFrom, len(row)) of fillRow's sweep
// (cFrom = 0 is the full row). The in-range column band — tj = t−(c−w)
// lies in [0, slots) iff c ∈ [cLo, cHi) — is one lag sweep per tx, and
// the out-of-range fringes are plain zero fills. cFrom = w restricts the
// sweep to the non-negative lags, the self-pair half-band computation (see
// BaseMatrices).
func (e *Engine) fillRowFrom(row []float64, i, j, w, t, cFrom int) {
	cLo := t + w - e.slots + 1 // first c with t−(c−w) < slots
	if cLo < cFrom {
		cLo = cFrom
	}
	cHi := t + w + 1 // first c with t−(c−w) < 0
	if cHi > len(row) {
		cHi = len(row)
	}
	for c := cFrom; c < cLo; c++ {
		row[c] = 0
	}
	for c := cHi; c < len(row); c++ {
		row[c] = 0
	}
	if cLo >= cHi {
		return
	}
	// The in-range band is a lag sweep: column c evaluates slot t against
	// slot t−(c−w), one slot earlier per column, so each tx is one strided
	// sigproc sweep (stride −tones) accumulated into the zeroed band.
	band := row[cLo:cHi]
	clear(band)
	oi := t * e.tones
	off := (t - (cLo - w)) * e.tones
	for tx := 0; tx < e.numTx; tx++ {
		sigproc.DotSqSweepSoA(band,
			e.re[i][tx][oi:oi+e.tones], e.im[i][tx][oi:oi+e.tones],
			e.re[j][tx], e.im[j][tx], off, -e.tones, e.tones)
	}
	if e.numTx > 1 {
		ntx := float64(e.numTx)
		for k := range band {
			band[k] /= ntx
		}
	}
}

// BaseMatrixSerial computes the single-snapshot TRRS matrix between
// antennas i and j over lags [−W, W] — base[t][l+W] = κ̄(H_i(t), H_j(t−l))
// — on one goroutine, row by row, with no symmetry shortcuts. This is the
// reference oracle the parallel, incremental and symmetry-deduplicated
// paths are tested against; select it pipeline-wide with Parallelism = 1.
func (e *Engine) BaseMatrixSerial(i, j, w int) *Matrix {
	m := &Matrix{I: i, J: j, W: w, Rate: e.rate}
	m.Vals = make([][]float64, e.slots)
	width := 2*w + 1
	flat := make([]float64, e.slots*width)
	for t := 0; t < e.slots; t++ {
		row := flat[t*width : (t+1)*width]
		e.fillRow(row, i, j, w, t)
		m.Vals[t] = row
	}
	return m
}

// BaseMatrix computes the single-snapshot TRRS matrix between antennas i
// and j over lags [−W, W], fanning the rows out over the engine's worker
// pool (see SetParallelism). The result is bit-for-bit identical to
// BaseMatrixSerial.
func (e *Engine) BaseMatrix(i, j, w int) *Matrix {
	return e.BaseMatrices([]PairSpec{{I: i, J: j}}, w)[0]
}

// VirtualMassive applies the Eq. 4 virtual-massive-antenna boost to a base
// matrix: each entry becomes the average of the same lag over a window of V
// consecutive snapshots (box filter along time, shrinking at the edges).
// V <= 1 returns a copy. A nil or ragged matrix (rows not 2W+1 wide) is a
// caller bug that would otherwise misindex the box filter; it is reported
// as an error.
func VirtualMassive(base *Matrix, v int) (*Matrix, error) {
	return VirtualMassiveInto(nil, base, v)
}

// PairMatrix is the convenience composition used everywhere: base matrix
// plus virtual-massive averaging with V virtual antennas.
func (e *Engine) PairMatrix(i, j, w, v int) *Matrix {
	m, err := VirtualMassive(e.BaseMatrix(i, j, w), v)
	if err != nil {
		// BaseMatrix always produces a well-formed matrix.
		panic(err)
	}
	return m
}

// AverageMatrices returns the element-wise mean of several equal-shape
// matrices — the §4.2 augmentation that merges parallel isometric antenna
// pairs, whose alignment delays are identical. The result borrows the
// identity of the first matrix. Matrices that disagree on W, Rate or slot
// count would silently misindex (or average physically incomparable lags),
// so any mismatch is reported as an error; an empty input is an error too.
func AverageMatrices(ms ...*Matrix) (*Matrix, error) {
	// Delegation note: AverageMatricesInto initializes each output row by
	// copying the first input instead of accumulating onto zeros. For the
	// non-negative values TRRS matrices hold, x and 0+x are bit-identical,
	// so the two formulations produce the same matrices (pinned by the
	// golden suites).
	return AverageMatricesInto(nil, ms...)
}

// SelfSeries returns the movement-detection series of §4.1 for antenna i:
// s[t] = virtual-massive TRRS between antenna i at slot t and itself
// lagSlots earlier, averaged over a window of v snapshots. Slots earlier
// than lagSlots copy the first computable value.
func (e *Engine) SelfSeries(i, lagSlots, v int) []float64 {
	raw := make([]float64, e.slots)
	for t := 0; t < e.slots; t++ {
		if t < lagSlots {
			raw[t] = math.NaN()
			continue
		}
		raw[t] = e.Base(i, i, t, t-lagSlots)
	}
	// Backfill the warm-up region.
	if lagSlots < e.slots {
		for t := 0; t < lagSlots; t++ {
			raw[t] = raw[lagSlots]
		}
	} else {
		for t := range raw {
			raw[t] = 1
		}
	}
	if v > 1 {
		return sigproc.MovingAverage(raw, v/2)
	}
	return raw
}

// ColumnMax returns, for each slot, the best lag and TRRS value in the
// matrix row — the naive per-column argmax peak picker used as the ablation
// baseline for the dynamic-programming tracker.
func (m *Matrix) ColumnMax() (lags []int, vals []float64) {
	lags = make([]int, len(m.Vals))
	vals = make([]float64, len(m.Vals))
	for t, row := range m.Vals {
		best, bi := -1.0, 0
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		lags[t] = bi - m.W
		vals[t] = best
	}
	return lags, vals
}
