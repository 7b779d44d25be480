package trrs

import (
	"sync"
	"sync/atomic"

	"rim/internal/obs/trace"
)

// PairSpec names one antenna pair for bulk matrix computation.
type PairSpec struct {
	I, J int
}

// rowJob is one unit of worker-pool work: rows [t0, t1) of m, each filled
// from column cFrom on (w for a self-pair's non-negative half band, else
// 0). Jobs write disjoint rows, so the pool's pickup order never changes a
// bit of the output.
type rowJob struct {
	m      *Matrix
	t0, t1 int
	cFrom  int
}

// runJobs fills every job on the engine's worker pool and returns the
// number of workers used. With one worker (Parallelism = 1, a single-CPU
// GOMAXPROCS, or a single job) it runs the jobs in order on the calling
// goroutine and allocates nothing.
func (e *Engine) runJobs(jobs []rowJob) int {
	workers := e.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			e.fillJob(j)
		}
		return 1
	}
	var next atomic.Int64
	work := func() {
		for {
			n := int(next.Add(1)) - 1
			if n >= len(jobs) {
				return
			}
			e.fillJob(jobs[n])
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for g := 1; g < workers; g++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return workers
}

// fillJob computes one job's rows.
func (e *Engine) fillJob(j rowJob) {
	m := j.m
	for t := j.t0; t < j.t1; t++ {
		e.fillRowFrom(m.Vals[t], m.I, m.J, m.W, t, j.cFrom)
	}
}

// Hermitian symmetry of the TRRS (Eq. 2/3): κ̄(Hᵢ(t), Hⱼ(t′)) =
// κ̄(Hⱼ(t′), Hᵢ(t)), because swapping the arguments conjugates the inner
// product and |·|² discards the sign of the imaginary part. In base-matrix
// coordinates that is the reflection
//
//	base_{j,i}[t][l] = base_{i,j}[t−l][−l]
//
// and it holds bit-for-bit, not just mathematically: the swapped kernel
// accumulates the same real products in the same order (a·b = b·a exactly)
// and an imaginary part of exactly opposite sign (IEEE-754 subtraction
// satisfies −(x−y) = (y−x) bitwise), whose square is identical. The AVX2
// sweep keeps this: swapping the arguments swaps its two imaginary FMA
// accumulators and negates each exactly (round-to-nearest is symmetric
// under negation), so every lane sum, and the pairwise reduction, flips
// sign and nothing else. So
// BaseMatrices computes one matrix per unordered pair and derives the
// reversed twin by reflection, and computes self-pairs (i, i) over the
// non-negative lag half-band only — with results identical to computing
// every entry from scratch (pinned by the symmetry property suite).

// pairPlan is the symmetry-deduplication plan for one requested pair:
// exactly one of compute / aliasOf / reflectOf applies.
type pairPlan struct {
	aliasOf   int // index of an identical earlier pair (-1 = none)
	reflectOf int // index of the reversed earlier pair (-1 = none)
}

// planPairs assigns each requested pair to compute, alias or reflect.
func planPairs(pairs []PairSpec) (plans []pairPlan, compute []int) {
	plans = make([]pairPlan, len(pairs))
	first := make(map[PairSpec]int, len(pairs))
	for k, p := range pairs {
		plans[k] = pairPlan{aliasOf: -1, reflectOf: -1}
		if m, ok := first[p]; ok {
			plans[k].aliasOf = m
			continue
		}
		if m, ok := first[PairSpec{I: p.J, J: p.I}]; ok {
			plans[k].reflectOf = m
			continue
		}
		first[p] = k
		compute = append(compute, k)
	}
	return plans, compute
}

// reflectInto derives columns [cFrom, cTo) of dst from src by the κ̄
// reflection base_dst[t][l] = base_src[t−l][−l] (column 2w−c holds lag −l).
// Rows whose source slot t−l falls outside the series get the same zero
// fillRow would have written. Self-pair half-band completion passes
// dst == src with cTo = w: the sweep then only reads columns > w, which
// phase 1 computed, and only writes columns < w.
func reflectInto(dst, src [][]float64, w, cFrom, cTo int) {
	slots := len(dst)
	for t := 0; t < slots; t++ {
		row := dst[t]
		for c := cFrom; c < cTo; c++ {
			srcT := t - (c - w) // t − l
			if srcT >= 0 && srcT < slots {
				row[c] = src[srcT][2*w-c]
			} else {
				row[c] = 0
			}
		}
	}
}

// newFlatMatrix allocates a slots×(2w+1) matrix with flat backing.
func (e *Engine) newFlatMatrix(i, j, w int) *Matrix {
	m := &Matrix{I: i, J: j, W: w, Rate: e.rate}
	m.Vals = make([][]float64, e.slots)
	width := 2*w + 1
	flat := make([]float64, e.slots*width)
	for t := 0; t < e.slots; t++ {
		m.Vals[t] = flat[t*width : (t+1)*width]
	}
	return m
}

// BaseMatrices computes the base TRRS matrices of several antenna pairs in
// one worker pool, sharded pair-major into blocks of consecutive rows.
// Symmetry deduplication runs first: of a reversed pair {(i,j), (j,i)}
// only the first is computed and the twin is derived by the κ̄ reflection
// above; exact duplicates share one matrix; a self-pair (i,i) computes
// only its non-negative lags and reflects the rest. Each computed entry is
// an independent pure function of the normalized snapshots and every job
// writes a disjoint row range of a preallocated buffer, so the output is
// deterministic and bit-for-bit identical to BaseMatrixSerial regardless
// of worker count, scheduling, or which of the symmetry paths produced it.
func (e *Engine) BaseMatrices(pairs []PairSpec, w int) []*Matrix {
	out := make([]*Matrix, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	plans, compute := planPairs(pairs)
	for _, k := range compute {
		out[k] = e.newFlatMatrix(pairs[k].I, pairs[k].J, w)
	}
	e.rowsFilled.Add(uint64(len(compute) * e.slots))
	if e.trc != nil {
		// Bulk multi-pair build: Frame = -1, A = rows computed from
		// scratch, B = pairs requested (aliases/reflections included).
		e.trc.Emit(trace.KindTRRSFill, e.hop, -1, int64(len(compute)*e.slots), int64(len(pairs)))
	}

	// Phase 1: fill the computed matrices (self-pairs: half band only).
	// Blocks are sized so every worker gets several, never below 16 rows.
	block := e.slots / (e.workers() * 4)
	if block < 16 {
		block = 16
	}
	var jobs []rowJob
	for _, k := range compute {
		cFrom := 0
		if pairs[k].I == pairs[k].J {
			cFrom = w
		}
		for t0 := 0; t0 < e.slots; t0 += block {
			jobs = append(jobs, rowJob{m: out[k], t0: t0, t1: min(t0+block, e.slots), cFrom: cFrom})
		}
	}
	e.poolGauge.Set(float64(e.runJobs(jobs)))

	// Phase 2 (after the barrier — reflections read computed rows at other
	// time indices): complete self-pair negative lags, derive reversed
	// twins, alias exact duplicates.
	for _, k := range compute {
		if pairs[k].I == pairs[k].J {
			reflectInto(out[k].Vals, out[k].Vals, w, 0, w)
		}
	}
	for k := range pairs {
		switch {
		case plans[k].aliasOf >= 0:
			out[k] = out[plans[k].aliasOf]
		case plans[k].reflectOf >= 0:
			src := out[plans[k].reflectOf]
			m := e.newFlatMatrix(pairs[k].I, pairs[k].J, w)
			reflectInto(m.Vals, src.Vals, w, 0, 2*w+1)
			out[k] = m
		}
	}
	return out
}

// fillRowsSharded recomputes the listed rows of one pair's matrix on the
// engine's worker pool (the incremental engine's refresh path). Each job
// holds one row of m, already allocated at width 2W+1.
func (e *Engine) fillRowsSharded(m *Matrix, jobs []rowJob) {
	e.rowsFilled.Add(uint64(len(jobs)))
	if e.trc != nil {
		e.trc.Emit(trace.KindTRRSFill, e.hop, trace.PairCode(m.I, m.J), int64(len(jobs)), 0)
	}
	e.runJobs(jobs)
}
