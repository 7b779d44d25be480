package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// PerfResult carries the engine-throughput measurements: the batch
// base-matrix build serial vs parallel, the streaming replay with the
// seed's full-window recompute vs the incremental engine, and the
// per-stage latency distribution of the instrumented replay. The struct
// marshals to the JSON perf row rimbench -json emits.
type PerfResult struct {
	Report *Report `json:"-"`
	// SerialNs and ParallelNs are the batch BaseMatrix wall times.
	SerialNs   float64 `json:"serial_ns"`
	ParallelNs float64 `json:"parallel_ns"`
	// RecomputeSlotsPerSec and IncrementalSlotsPerSec are the streaming
	// replay throughputs.
	RecomputeSlotsPerSec   float64 `json:"recompute_slots_per_sec"`
	IncrementalSlotsPerSec float64 `json:"incremental_slots_per_sec"`
	// BatchSpeedup and StreamSpeedup are the corresponding ratios.
	BatchSpeedup  float64 `json:"batch_speedup"`
	StreamSpeedup float64 `json:"stream_speedup"`
	// SymmetricSpeedup is the single-core gain from deriving reversed and
	// self pairs by Hermitian reflection in one BaseMatrices call instead
	// of computing every matrix from scratch.
	SymmetricSpeedup float64 `json:"symmetric_speedup"`
	// HopNs and HopAllocsPerOp are one steady-state incremental hop
	// (append W, drop W, refresh the pair matrix) at Parallelism 1. The
	// hot path runs in ring- and matrix-owned storage, so allocs/op is 0
	// once the window geometry has settled.
	HopNs          float64 `json:"hop_ns"`
	HopAllocsPerOp float64 `json:"hop_allocs_per_op"`
	// Stages holds the per-stage latency percentiles of an instrumented
	// (registry-attached) incremental replay of the same trace.
	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency summarizes one pipeline stage's latency histogram.
type StageLatency struct {
	// Stage is the metric name (e.g. "rim_stream_hop_seconds").
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// perfSeries simulates the walk both measurements replay.
func perfSeries(scale Scale) *csi.Series {
	setup := NewSetup(scale, 0, 9901)
	rate := scale.Rate()
	b := traj.NewBuilder(rate, geom.Pose{Pos: setup.Area})
	b.Pause(1)
	b.MoveDir(0, scale.PickF(1.5, 4), 0.4)
	b.Pause(1)
	s, err := setup.Acquire(array.NewLinear3(Spacing), b.Build(), 9902)
	if err != nil {
		panic(err)
	}
	return s
}

// timeBest returns the best-of-reps wall time of f.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// hopStats measures one steady-state incremental hop at Parallelism 1:
// best-of-reps wall time plus the malloc count per hop (via the runtime's
// cumulative Mallocs counter, averaged over a settled run).
func hopStats(s *csi.Series, w, reps int) (time.Duration, float64) {
	inc, err := trrs.NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		panic(err)
	}
	inc.SetParallelism(1)
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snap := make([][][]complex128, s.NumAnts)
		for a := 0; a < s.NumAnts; a++ {
			snap[a] = make([][]complex128, s.NumTx)
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		snaps[ti] = snap
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			panic(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		panic(err)
	}
	k := 0
	hopOnce := func() {
		for n := 0; n < w; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				panic(err)
			}
			k++
		}
		inc.DropFront(w)
		if _, err := inc.ExtendMatrix(0, 2); err != nil {
			panic(err)
		}
	}
	for n := 0; n < 12; n++ {
		hopOnce() // settle the ring and both matrix generations
	}
	best := timeBest(reps, hopOnce)
	// Mallocs is process-wide, so runtime background work (GC assists,
	// timer wakeups) can leak a stray allocation into the window. A real
	// per-hop allocation shows up in every attempt; noise doesn't — take
	// the minimum over a few attempts.
	const allocRuns = 10
	allocs := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < allocRuns; n++ {
			hopOnce()
		}
		runtime.ReadMemStats(&after)
		allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs)/allocRuns)
		if allocs == 0 {
			break
		}
	}
	return best, allocs
}

// replayThroughput replays s through a fresh streamer and returns slots/s.
func replayThroughput(s *csi.Series, cfg core.StreamConfig) float64 {
	st, err := core.NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		panic(err)
	}
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	t0 := time.Now()
	for ti := 0; ti < s.NumSlots(); ti++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		if _, err := st.Push(snap); err != nil && !errors.Is(err, core.ErrAnalysis) {
			panic(err)
		}
	}
	st.Flush()
	return float64(s.NumSlots()) / time.Since(t0).Seconds()
}

// stageHistograms names the latency histograms the pipeline records, in
// pipeline order (ingest → TRRS build → movement → alignment → whole hop).
var stageHistograms = []string{
	"rim_ingest_seconds",
	"rim_trrs_build_seconds",
	"rim_movement_seconds",
	"rim_align_seconds",
	"rim_stream_hop_seconds",
}

// stageLatencies replays the trace once more with a live registry attached
// and extracts each stage's latency percentiles. The replay is separate
// from the timed throughput runs so instrumentation cost never pollutes
// the recompute-vs-incremental comparison.
func stageLatencies(s *csi.Series, cfg core.StreamConfig) []StageLatency {
	reg := obs.NewRegistry()
	cfg.Core.Obs = reg
	replayThroughput(s, cfg)
	var out []StageLatency
	for _, name := range stageHistograms {
		h := reg.Histogram(name, "", nil)
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageLatency{
			Stage: name,
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		})
	}
	return out
}

// Perf measures the parallel + incremental TRRS engine against the seed's
// serial full-recompute paths on one simulated walk: the batch base-matrix
// build (one pair, full trace) and the end-to-end streaming replay. This is
// the reproduction's throughput row — the paper's real-time claim (§6.1,
// 200 Hz on a laptop) needs the streaming hop cost to stay sub-hop.
func Perf(scale Scale) *PerfResult {
	arr := array.NewLinear3(Spacing)
	s := perfSeries(scale)
	cfg := CoreConfig(scale, arr)
	w := int(math.Round(cfg.WindowSeconds * s.Rate))
	reps := scale.Pick(3, 5)

	e := trrs.NewEngine(s)
	e.SetParallelism(1)
	serial := timeBest(reps, func() { e.BaseMatrixSerial(0, 2, w) })
	e.SetParallelism(0)
	parallel := timeBest(reps, func() { e.BaseMatrix(0, 2, w) })

	// Symmetric pair set on one core: reflection dedup vs from-scratch.
	symPairs := []trrs.PairSpec{{I: 0, J: 2}, {I: 2, J: 0}, {I: 1, J: 1}}
	e.SetParallelism(1)
	symNaive := timeBest(reps, func() {
		for _, p := range symPairs {
			e.BaseMatrixSerial(p.I, p.J, w)
		}
	})
	symDedup := timeBest(reps, func() { e.BaseMatrices(symPairs, w) })

	hopNs, hopAllocs := hopStats(s, w, reps)

	oracleCfg := core.StreamConfig{Core: cfg, Recompute: true}
	oracleCfg.Core.Parallelism = 1
	incCfg := core.StreamConfig{Core: cfg}
	recompute := replayThroughput(s, oracleCfg)
	incremental := replayThroughput(s, incCfg)

	out := &PerfResult{
		SerialNs:               float64(serial.Nanoseconds()),
		ParallelNs:             float64(parallel.Nanoseconds()),
		RecomputeSlotsPerSec:   recompute,
		IncrementalSlotsPerSec: incremental,
		BatchSpeedup:           float64(serial) / float64(parallel),
		StreamSpeedup:          incremental / recompute,
		SymmetricSpeedup:       float64(symNaive) / float64(symDedup),
		HopNs:                  float64(hopNs.Nanoseconds()),
		HopAllocsPerOp:         hopAllocs,
		Stages:                 stageLatencies(s, incCfg),
	}

	rep := &Report{
		ID:         "Perf",
		Title:      "TRRS engine throughput (parallel + incremental vs serial recompute)",
		PaperClaim: "real-time at 200 Hz on a laptop (§6.1); engine must keep per-hop cost below the hop interval",
		Columns:    []string{"path", "metric", "value", "speedup"},
	}
	rep.AddRow("BaseMatrix serial", "build time", serial.Round(time.Microsecond).String(), "1.00x")
	rep.AddRow("BaseMatrix parallel", "build time", parallel.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2fx", out.BatchSpeedup))
	rep.AddRow("stream recompute", "throughput", fmt.Sprintf("%.0f slots/s", recompute), "1.00x")
	rep.AddRow("stream incremental", "throughput", fmt.Sprintf("%.0f slots/s", incremental),
		fmt.Sprintf("%.2fx", out.StreamSpeedup))
	rep.AddRow("symmetric pairs dedup", "build time (1 core)", symDedup.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2fx", out.SymmetricSpeedup))
	rep.AddRow("incremental hop", "steady-state cost", hopNs.Round(time.Microsecond).String(),
		fmt.Sprintf("%.0f allocs/op", hopAllocs))
	rep.AddNote("GOMAXPROCS=%d; trace %d slots at %.0f Hz, W=%d slots; on 1 core the parallel pool degenerates to the serial loop",
		runtime.GOMAXPROCS(0), s.NumSlots(), s.Rate, w)
	rep.AddNote("real-time margin: incremental streams %.1fx faster than the %.0f Hz arrival rate",
		incremental/s.Rate, s.Rate)
	for _, sl := range out.Stages {
		rep.AddRow(sl.Stage, "latency P50/P90/P99",
			fmt.Sprintf("%s / %s / %s", fmtSec(sl.P50), fmtSec(sl.P90), fmtSec(sl.P99)),
			fmt.Sprintf("n=%d", sl.Count))
	}
	out.Report = rep
	return out
}

// fmtSec renders a latency in engineering units.
func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
