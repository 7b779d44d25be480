// Package core assembles RIM's motion reckoning (§4.4): it consumes a
// processed CSI series, detects movement, builds the per-pair-group TRRS
// alignment matrices, tracks alignment delays with the dynamic program,
// decides which antenna pairs are aligned (translation) or whether every
// adjacent pair is aligned (in-place rotation), and integrates speed,
// heading and rotation angle into motion estimates.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
	"rim/internal/trrs"
)

// Config parameterizes the full RIM pipeline.
type Config struct {
	// Array describes the receive antenna geometry. Required.
	Array *array.Array
	// WindowSeconds is the one-sided lag window W of the alignment
	// matrices; it must exceed separation/speed for the slowest expected
	// motion (default 0.5 s, as in the paper).
	WindowSeconds float64
	// V is the number of virtual massive antennas (default 30; the paper
	// recommends ≥30 at 200 Hz).
	V int
	// Movement, Track, PreDetect and PostCheck tune the §4.1–4.3 stages.
	Movement  align.MovementConfig
	Track     align.TrackConfig
	PreDetect align.PreDetectConfig
	PostCheck align.PostCheckConfig
	// MinSegmentSeconds discards movement segments shorter than this.
	MinSegmentSeconds float64
	// ZUPTMinSeconds discards zero-velocity intervals shorter than this
	// (default 0.2 s): a static run must persist before it is trusted as a
	// zero-velocity pseudo-measurement (see zupt.go).
	ZUPTMinSeconds float64
	// HeadingWindowSeconds is the duration of the sub-windows within a
	// movement segment over which the winning pair group (and hence the
	// heading) is re-selected. Curved strokes and sideway course changes
	// switch aligned pairs mid-segment; shorter windows track them at the
	// cost of less DP context (default 0.8 s).
	HeadingWindowSeconds float64
	// SpeedSmoothHalf is the half-width (slots) of the speed moving
	// average (default rate/20).
	SpeedSmoothHalf int
	// RotationMinRingFrac is the fraction of adjacent-ring pairs that must
	// pass pre-detection simultaneously to declare an in-place rotation.
	RotationMinRingFrac float64
	// ContinuousHeading enables the §7 "angle resolution" extension: the
	// winning direction is refined between the array's discrete direction
	// set by comparing the alignment quality of the angularly adjacent
	// pair groups (TRRS decays with deviation angle, so the neighbours'
	// relative peak strengths locate the true heading inside the 30° bin).
	ContinuousHeading bool
	// DisablePairAveraging turns off the §4.2 parallel-pair matrix
	// averaging (ablation).
	DisablePairAveraging bool
	// NaivePeakPicking replaces the dynamic-programming tracker with the
	// per-column argmax (ablation).
	NaivePeakPicking bool
	// Parallelism is the worker count for TRRS base-matrix computation:
	// 0 (default) uses GOMAXPROCS, 1 forces the serial reference path —
	// the oracle the parallel and incremental engines are tested against —
	// and n > 1 uses exactly n workers. All settings produce bit-for-bit
	// identical matrices.
	Parallelism int
	// Obs is the observability registry stage timers and counters report
	// into (see internal/obs and DESIGN.md "Observability"). nil — the
	// default — disables metrics; disabled instrumentation costs one nil
	// check per operation, guarded below 2% of a streaming hop by
	// TestObsOverheadGuard.
	Obs *obs.Registry
	// Logger receives structured pipeline events (log/slog): analysis
	// failures, dead-antenna transitions, sub-array fallbacks. nil uses
	// the package-level obs.Logger(), which discards records until the
	// embedding binary opts in via obs.SetLogger.
	Logger *slog.Logger
	// Trace is the causal event recorder the pipeline's stage spans,
	// segment decisions and estimate emissions report into (see
	// internal/obs/trace and DESIGN.md "Causal tracing"). nil — the
	// default — disables tracing at one nil check per event site.
	Trace *trace.Recorder
	// Flight is the flight recorder offered degradation triggers (degraded
	// estimates, analysis failures, dead antennas); it snapshots Trace's
	// recent past into a postmortem bundle. nil disables the offers.
	Flight *trace.Flight
	// Quality is the estimator-consistency engine (internal/obs/quality)
	// the pipeline's signal-quality telemetry reports into: per-slot
	// movement-indicator (κ) samples, segment peak-sharpness and
	// alignment residuals, and the confidence-calibration outcomes of
	// finalized moving estimates. nil — the default — disables the
	// telemetry at one nil check per hop.
	Quality *quality.Engine
	// arena, when non-nil, supplies recycled backings for the derived
	// (averaged, virtual-massive) matrices of one analysis pass. The
	// streaming front end threads a pooled arena through here so the
	// steady-state hop reuses hop-lifetime scratch instead of allocating
	// it; nil (batch runs) falls back to plain allocation. The matrices
	// of a pass become invalid at the arena's next Reset, which is fine:
	// Result retains no matrices.
	arena *trrs.MatrixArena
	// traceHop is the causal hop ID stamped on this pipeline's trace
	// events: 0 for batch runs, ≥ 1 for the streaming front end's hops
	// (core.Streamer threads it through before each re-analysis).
	traceHop int64
	// hopDeadline / hopCtx bound this analysis pass: Process checks them at
	// stage boundaries (before movement detection and before each segment)
	// and, once exceeded, stops analyzing and leaves the remaining slots as
	// degraded placeholders instead of stalling the caller. The zero values
	// (batch runs, streams without StreamConfig.HopDeadline) disable the
	// checks. Threaded by core.Streamer per hop.
	hopDeadline time.Time
	hopCtx      context.Context
}

// hopExpired reports whether the analysis deadline for this pass is gone:
// the hop context is done or the hop deadline has passed. Free when neither
// is set.
func (cfg *Config) hopExpired() bool {
	if cfg.hopCtx != nil {
		select {
		case <-cfg.hopCtx.Done():
			return true
		default:
		}
	}
	return !cfg.hopDeadline.IsZero() && time.Now().After(cfg.hopDeadline)
}

// logger resolves the configured logger (never nil).
func (cfg *Config) logger() *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return obs.Logger()
}

// applyDefaults fills unset tuning fields with the paper's operating
// point. Both the batch and the streaming constructors run it, so the two
// paths analyze with identical parameters.
func (cfg *Config) applyDefaults(rate float64) {
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = 0.5
	}
	if cfg.V <= 0 {
		cfg.V = 30
	}
	if cfg.MinSegmentSeconds <= 0 {
		cfg.MinSegmentSeconds = 0.25
	}
	if cfg.ZUPTMinSeconds <= 0 {
		cfg.ZUPTMinSeconds = 0.2
	}
	if cfg.HeadingWindowSeconds <= 0 {
		cfg.HeadingWindowSeconds = 0.8
	}
	if cfg.RotationMinRingFrac <= 0 {
		cfg.RotationMinRingFrac = 0.8
	}
	if cfg.SpeedSmoothHalf <= 0 {
		cfg.SpeedSmoothHalf = int(rate / 20)
	}
	// The align-layer sub-configs must not stay zero: a zero
	// MovementConfig.Threshold makes the movement trigger unreachable, so
	// every slot reads static and downstream consumers (ZUPT extraction,
	// fusion backends) see a device that never moves.
	if cfg.Movement == (align.MovementConfig{}) {
		cfg.Movement = align.DefaultMovementConfig()
	}
	if cfg.Track == (align.TrackConfig{}) {
		cfg.Track = align.DefaultTrackConfig()
	}
	if cfg.PreDetect == (align.PreDetectConfig{}) {
		cfg.PreDetect = align.DefaultPreDetectConfig()
	}
	if cfg.PostCheck == (align.PostCheckConfig{}) {
		cfg.PostCheck = align.DefaultPostCheckConfig()
	}
}

// windowSlots converts the one-sided lag window to slots (min 3).
func windowSlots(windowSeconds, rate float64) int {
	w := int(math.Round(windowSeconds * rate))
	if w < 3 {
		w = 3
	}
	return w
}

// DefaultConfig returns the paper's operating point for the given array.
func DefaultConfig(arr *array.Array) Config {
	return Config{
		Array:                arr,
		WindowSeconds:        0.5,
		V:                    30,
		Movement:             align.DefaultMovementConfig(),
		Track:                align.DefaultTrackConfig(),
		PreDetect:            align.DefaultPreDetectConfig(),
		PostCheck:            align.DefaultPostCheckConfig(),
		MinSegmentSeconds:    0.25,
		HeadingWindowSeconds: 0.8,
		RotationMinRingFrac:  0.8,
	}
}

// MotionKind classifies a movement segment.
type MotionKind int

const (
	// MotionNone means the device is static.
	MotionNone MotionKind = iota
	// MotionTranslate is a linear move along an identified direction.
	MotionTranslate
	// MotionRotate is an in-place rotation.
	MotionRotate
)

// String implements fmt.Stringer.
func (k MotionKind) String() string {
	switch k {
	case MotionNone:
		return "none"
	case MotionTranslate:
		return "translate"
	case MotionRotate:
		return "rotate"
	default:
		return "unknown"
	}
}

// SegmentResult summarizes one movement segment.
type SegmentResult struct {
	Start, End int // slot range [Start, End)
	Kind       MotionKind
	// Distance is the translation distance in meters (MotionTranslate).
	Distance float64
	// HeadingBody is the body-frame motion direction in radians
	// (MotionTranslate); the array resolves it to its discrete direction
	// set.
	HeadingBody float64
	// Angle is the signed in-place rotation in radians (MotionRotate,
	// CCW positive).
	Angle float64
	// Confidence is the post-check confidence of the chosen alignment.
	Confidence float64
	// GroupDir and GroupSep identify the winning pair group.
	GroupDir, GroupSep float64
}

// Estimate is the per-slot motion output.
type Estimate struct {
	T           float64
	Moving      bool
	Kind        MotionKind
	Speed       float64 // m/s (translation) or arc speed (rotation)
	HeadingBody float64 // body-frame heading, NaN when not translating
	AngVel      float64 // rad/s, CCW positive, non-zero when rotating
	// Confidence is the §4.3 post-check confidence of the alignment that
	// produced this slot's motion ([0,1]; 0 for static or unresolved
	// slots). Downstream consumers weight or skip low-confidence slots.
	Confidence float64
	// Degraded marks slots produced under data-quality trouble: a large
	// fraction of antennas missing, a dead-antenna sub-array fallback, or
	// an analysis failure placeholder. Degraded estimates are safe (never
	// NaN speeds) but should be weighted down by consumers.
	Degraded bool
}

// Result is the full pipeline output.
type Result struct {
	Rate      float64
	Estimates []Estimate
	Segments  []SegmentResult
	// Distance is the total translation distance.
	Distance float64
	// RotationAngle is the total absolute in-place rotation.
	RotationAngle float64
	// MovementIndicator is the §4.1 self-TRRS statistic (exposed for the
	// Fig. 7 experiment).
	MovementIndicator []float64
	// ZUPTs are the confirmed zero-velocity intervals of the pass, ordered
	// and non-overlapping (see zupt.go). Fusion backends consume them as
	// pseudo-measurements.
	ZUPTs []ZUPTInterval
	// DeadlineExceeded reports that the analysis deadline expired before
	// the pass completed: the slots of every unprocessed stage were emitted
	// as degraded placeholders (never stale or fabricated motion).
	DeadlineExceeded bool
}

// groupMatrices holds one alignment matrix per parallel-isometric group.
type groupMatrix struct {
	group array.ParallelGroup
	m     *trrs.Matrix
}

// Pipeline precomputes the expensive pieces (TRRS engine, group matrices)
// once per CSI series so that segment-level queries stay cheap.
type Pipeline struct {
	cfg    Config
	eng    *trrs.Engine
	w      int
	groups []groupMatrix
	// ring holds per-adjacent-pair matrices for rotation detection
	// (only for arrays with ≥ 4 antennas arranged in a ring).
	ring []groupMatrix
	// moving is the per-slot movement flag of the last Process call;
	// movingSoft is the permissive variant (indicator below the release
	// level) used to gate per-slot speed: a slot must look genuinely
	// static — not merely a hysteresis release flicker — before its
	// speed contribution is dropped.
	moving     []bool
	movingSoft []bool
	// fastInd is the fast-lag-only movement indicator: device motion
	// above ~0.2 m/s must decorrelate it, while environmental churn
	// (walking humans) barely touches it. Used to veto implausible
	// speed claims in churn-inflated segments.
	fastInd []float64
	// missFrac[t] is the fraction of antennas whose slot t sample was
	// interpolated (from the series' Missing mask); slots above
	// degradedMissFrac are marked Estimate.Degraded.
	missFrac []float64
	// po holds the resolved observability handles (all nil when
	// cfg.Obs is nil, making every use a no-op).
	po pipelineObs
}

// pipelineObs bundles the batch pipeline's metric handles, resolved once
// at construction so the processing path never touches the registry map.
type pipelineObs struct {
	// buildH times the TRRS base-matrix build/extend during pipeline
	// construction; movementH the §4.1 movement-detection stage; alignH
	// the per-segment alignment tracking + reckoning.
	buildH, movementH, alignH *obs.Histogram
	// estimates/degraded count window slots analyzed by Process (the
	// streamer re-analyzes overlapping windows, so for streams this is a
	// work measure; finalized emissions are counted by rim_stream_*).
	estimates, degraded *obs.Counter
	segments            *obs.Counter
	// zuptIntervals/zuptSlots count zero-velocity intervals resolved by
	// Process and the static slots they cover (work measure for streams,
	// like rim_estimates_total).
	zuptIntervals, zuptSlots *obs.Counter
}

func newPipelineObs(reg *obs.Registry) pipelineObs {
	if reg == nil {
		return pipelineObs{}
	}
	return pipelineObs{
		buildH:    reg.Timer("rim_trrs_build_seconds", "TRRS base-matrix build/extend latency per pipeline construction"),
		movementH: reg.Timer("rim_movement_seconds", "movement-detection stage latency per Process"),
		alignH:    reg.Timer("rim_align_seconds", "alignment tracking + reckoning latency per movement segment"),
		estimates: reg.Counter("rim_estimates_total", "window slots analyzed by pipeline Process"),
		degraded:  reg.Counter("rim_estimates_degraded_total", "analyzed window slots flagged degraded"),
		segments:  reg.Counter("rim_segments_total", "movement segments resolved"),
		zuptIntervals: reg.Counter("rim_zupt_intervals_total",
			"zero-velocity (ZUPT) intervals resolved by pipeline Process"),
		zuptSlots: reg.Counter("rim_zupt_slots_total",
			"window slots covered by resolved zero-velocity intervals"),
	}
}

// degradedMissFrac is the per-slot missing-antenna fraction above which an
// estimate is flagged degraded: with a third of the array interpolated the
// TRRS averages lean on fabricated data.
const degradedMissFrac = 1.0 / 3

// NewPipeline builds the pipeline for one CSI series.
func NewPipeline(s *csi.Series, cfg Config) (*Pipeline, error) {
	if cfg.Array == nil {
		return nil, fmt.Errorf("core: Config.Array is required")
	}
	if cfg.Array.NumAntennas() != s.NumAnts {
		return nil, fmt.Errorf("core: array has %d antennas but series has %d",
			cfg.Array.NumAntennas(), s.NumAnts)
	}
	cfg.applyDefaults(s.Rate)
	eng := trrs.NewEngine(s)
	eng.SetParallelism(cfg.Parallelism)
	eng.SetObs(cfg.Obs)
	eng.SetTrace(cfg.Trace)
	eng.SetHop(cfg.traceHop)
	return newPipelineFromEngine(eng, nil, missFracOf(s.Missing, s.NumAnts, s.NumSlots()), cfg)
}

// missFracOf computes the per-slot fraction of antennas whose sample was
// missing/interpolated. A nil mask yields nil (no degradation flagging).
func missFracOf(missing [][]bool, numAnts, slots int) []float64 {
	if missing == nil {
		return nil
	}
	out := make([]float64, slots)
	for t := range out {
		miss := 0
		for a := 0; a < numAnts && a < len(missing); a++ {
			if t < len(missing[a]) && missing[a][t] {
				miss++
			}
		}
		out[t] = float64(miss) / float64(numAnts)
	}
	return out
}

// pairGeometry derives the pipeline's pair structure from the array: the
// parallel-isometric groups (translation) and, for arrays with ≥ 4
// antennas arranged in a ring, the adjacent pairs (rotation detection).
func pairGeometry(arr *array.Array) ([]array.ParallelGroup, []array.Pair) {
	groups := arr.ParallelGroups(geom.Rad(2), 1e-6)
	var ring []array.Pair
	if arr.NumAntennas() >= 4 {
		ring = arr.AdjacentRing()
	}
	return groups, ring
}

// neededPairs collects the distinct base-matrix pairs the pipeline will
// request for the given geometry, deduplicated in request order: every
// pair of every parallel group (first pair only under
// DisablePairAveraging) plus the rotation ring. The batch bulk build
// computes exactly these, so the per-pair lookups always hit its cache.
func neededPairs(groups []array.ParallelGroup, ring []array.Pair, disablePairAveraging bool) []trrs.PairSpec {
	var pairs []trrs.PairSpec
	seen := map[[2]int]bool{}
	addPair := func(i, j int) {
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			pairs = append(pairs, trrs.PairSpec{I: i, J: j})
		}
	}
	for _, g := range groups {
		for k, pr := range g.Pairs {
			if disablePairAveraging && k > 0 {
				break
			}
			addPair(pr.I, pr.J)
		}
	}
	for _, pr := range ring {
		addPair(pr.I, pr.J)
	}
	return pairs
}

// newPipelineFromEngine assembles a pipeline over an existing TRRS engine.
// baseFor supplies the per-pair base matrices (antenna indices local to
// the engine); nil selects the default bulk computation, which fans every
// needed pair out over one worker pool sharded by pair × time block. The
// streaming front end passes an incremental-engine source instead. cfg
// must already have defaults applied and an Array matching the engine's
// antenna count.
func newPipelineFromEngine(eng *trrs.Engine, baseFor func(i, j int) *trrs.Matrix, missFrac []float64, cfg Config) (*Pipeline, error) {
	if cfg.Array.NumAntennas() != eng.NumAntennas() {
		return nil, fmt.Errorf("core: array has %d antennas but engine has %d",
			cfg.Array.NumAntennas(), eng.NumAntennas())
	}
	p := &Pipeline{cfg: cfg, eng: eng, missFrac: missFrac, po: newPipelineObs(cfg.Obs)}
	p.w = windowSlots(cfg.WindowSeconds, eng.Rate())
	buildSpan := obs.StartSpan(p.po.buildH)
	defer buildSpan.End()
	buildTrace := cfg.Trace.Start(trace.KindBuild, cfg.traceHop, -1)
	defer buildTrace.End()

	// Base matrices are shared between translation groups and the
	// rotation ring; collect the distinct pairs first so the bulk source
	// computes each exactly once, in one worker pool (see
	// trrs.BaseMatrices). Reversed pairs and self-pairs need no
	// handling here: BaseMatrices derives them by the Hermitian
	// reflection instead of recomputing.
	groups, ring := pairGeometry(cfg.Array)
	if baseFor == nil {
		pairs := neededPairs(groups, ring, cfg.DisablePairAveraging)
		ms := eng.BaseMatrices(pairs, p.w)
		cache := make(map[[2]int]*trrs.Matrix, len(pairs))
		for k, spec := range pairs {
			cache[[2]int{spec.I, spec.J}] = ms[k]
		}
		baseFor = func(i, j int) *trrs.Matrix { return cache[[2]int{i, j}] }
	}

	for _, g := range groups {
		var ms []*trrs.Matrix
		for _, pr := range g.Pairs {
			ms = append(ms, baseFor(pr.I, pr.J))
			if cfg.DisablePairAveraging {
				break
			}
		}
		avg, err := trrs.AverageMatricesInto(cfg.arena, ms...)
		if err != nil {
			return nil, fmt.Errorf("core: group matrices: %w", err)
		}
		vm, err := trrs.VirtualMassiveInto(cfg.arena, avg, cfg.V)
		if err != nil {
			return nil, fmt.Errorf("core: group matrices: %w", err)
		}
		p.groups = append(p.groups, groupMatrix{group: g, m: vm})
	}
	for _, pr := range ring {
		vm, err := trrs.VirtualMassiveInto(cfg.arena, baseFor(pr.I, pr.J), cfg.V)
		if err != nil {
			return nil, fmt.Errorf("core: ring matrices: %w", err)
		}
		p.ring = append(p.ring, groupMatrix{
			group: array.ParallelGroup{
				Pairs:      []array.Pair{pr},
				Direction:  cfg.Array.Direction(pr),
				Separation: cfg.Array.Separation(pr),
			},
			m: vm,
		})
	}
	return p, nil
}

// Engine exposes the underlying TRRS engine (used by applications that need
// raw alignment matrices, e.g. gesture recognition).
func (p *Pipeline) Engine() *trrs.Engine { return p.eng }

// Window returns the one-sided lag window in slots.
func (p *Pipeline) Window() int { return p.w }

// NumGroups returns the number of parallel-isometric pair groups.
func (p *Pipeline) NumGroups() int { return len(p.groups) }

// Group returns the i-th pair group and its averaged alignment matrix
// (diagnostics and experiments).
func (p *Pipeline) Group(i int) (array.ParallelGroup, *trrs.Matrix) {
	return p.groups[i].group, p.groups[i].m
}

// GroupMatrix returns the averaged alignment matrix of the group whose
// direction is closest to bodyDir (radians, mod π).
func (p *Pipeline) GroupMatrix(bodyDir float64) (*trrs.Matrix, array.ParallelGroup) {
	best, bi := math.Inf(1), 0
	for i, gm := range p.groups {
		d := geom.AbsAngleDiff(gm.group.Direction, bodyDir)
		if d > math.Pi/2 {
			d = math.Pi - d
		}
		if d < best {
			best, bi = d, i
		}
	}
	return p.groups[bi].m, p.groups[bi].group
}

// Process runs the full pipeline and returns per-slot and per-segment
// motion estimates.
func (p *Pipeline) Process() *Result {
	rate := p.eng.Rate()
	slots := p.eng.NumSlots()
	res := &Result{Rate: rate}
	hop := p.cfg.traceHop
	var hopTrace trace.Span
	if hop == 0 {
		// Batch runs have no Streamer emitting the hop span; the whole
		// Process is the one "hop", covering every slot. The span is ended
		// explicitly before any flight-recorder offer so a postmortem
		// bundle always contains the hop span it needs for lineage.
		hopTrace = p.cfg.Trace.Start(trace.KindHop, 0, -1)
	}
	// Deadline gate: every stage boundary below re-checks it, and a pass
	// that runs out of budget finishes immediately with degraded
	// placeholders for everything it did not get to — a late answer that
	// says "I don't know" beats a stalled session.
	var moving []bool
	if p.cfg.hopExpired() {
		res.DeadlineExceeded = true
	} else {
		movementSpan := obs.StartSpan(p.po.movementH)
		movementTrace := p.cfg.Trace.Start(trace.KindMovement, hop, -1)
		res.MovementIndicator = align.MovementIndicator(p.eng, p.cfg.Movement)
		moving = align.ThresholdWithHysteresis(res.MovementIndicator, p.cfg.Movement)
		p.moving = moving
		release := p.cfg.Movement.ReleaseThreshold
		if release < p.cfg.Movement.Threshold {
			release = p.cfg.Movement.Threshold
		}
		p.movingSoft = make([]bool, len(res.MovementIndicator))
		for t, v := range res.MovementIndicator {
			p.movingSoft[t] = v < release
		}
		fastCfg := p.cfg.Movement
		fastCfg.SlowLagSeconds = 0
		p.fastInd = align.MovementIndicator(p.eng, fastCfg)
		movementSpan.End()
		movementTrace.End()
		res.ZUPTs = p.extractZUPTs(res.MovementIndicator, release,
			int(p.cfg.ZUPTMinSeconds*rate))
		p.emitZUPTs(res.ZUPTs, hop)
	}
	res.Estimates = make([]Estimate, slots)
	dt := 1 / rate
	for t := range res.Estimates {
		res.Estimates[t] = Estimate{T: float64(t) * dt, HeadingBody: math.NaN()}
		if p.missFrac != nil && t < len(p.missFrac) && p.missFrac[t] >= degradedMissFrac {
			res.Estimates[t].Degraded = true
		}
		if res.DeadlineExceeded {
			// No movement analysis ran at all: every slot is an unknown.
			res.Estimates[t].Degraded = true
		}
	}

	if !res.DeadlineExceeded {
		minLen := int(p.cfg.MinSegmentSeconds * rate)
		segs := align.Segments(moving, minLen, int(0.3*rate))
		// Trim each segment to the region where the indicator actually hit
		// the trigger level (plus a short pad): when the device stops in a
		// low-SNR spot the indicator may never climb back above the release
		// level, which would otherwise glue a long static tail onto the
		// segment and starve its final heading window.
		pad := int(0.08 * rate)
		indSm := sigproc.MedianFilter(res.MovementIndicator, 5)
		for si := range segs {
			start, end := segs[si][0], segs[si][1]
			for end-1 > start && indSm[end-1] >= p.cfg.Movement.Threshold {
				end--
			}
			end += pad
			if end > segs[si][1] {
				end = segs[si][1]
			}
			if end-start >= minLen {
				segs[si][1] = end
			}
		}
		// Split segments at sustained trigger-level-static runs: when the
		// device stops in a channel fade the indicator can sit between the
		// trigger and release levels, gluing two motions into one segment.
		// Genuine motion never holds the indicator above the trigger level
		// for long, so a ≥0.4 s run there marks an interior idle.
		segs = splitAtInteriorIdles(segs, indSm, p.cfg.Movement.Threshold, int(0.4*rate), minLen)
		for _, seg := range segs {
			if !res.DeadlineExceeded && p.cfg.hopExpired() {
				res.DeadlineExceeded = true
			}
			if res.DeadlineExceeded {
				// Out of budget: this segment's motion stays unresolved.
				// Its slots keep the static placeholder, flagged degraded.
				for t := seg[0]; t < seg[1] && t < len(res.Estimates); t++ {
					res.Estimates[t].Degraded = true
				}
				continue
			}
			alignSpan := obs.StartSpan(p.po.alignH)
			alignTrace := p.cfg.Trace.Start(trace.KindAlign, hop, int64(seg[0]))
			sr := p.processSegment(seg[0], seg[1], res)
			alignSpan.End()
			alignTrace.End()
			p.cfg.Trace.Emit(trace.KindSegment, hop, int64(sr.Start), int64(sr.End), int64(sr.Kind))
			res.Segments = append(res.Segments, sr)
			switch sr.Kind {
			case MotionTranslate:
				res.Distance += sr.Distance
			case MotionRotate:
				res.RotationAngle += math.Abs(sr.Angle)
			}
		}
	}
	p.po.segments.Add(uint64(len(res.Segments)))
	p.po.estimates.Add(uint64(len(res.Estimates)))
	if p.po.degraded != nil || (hop == 0 && (p.cfg.Trace != nil || p.cfg.Flight != nil)) {
		var deg uint64
		for i := range res.Estimates {
			if res.Estimates[i].Degraded {
				deg++
				if hop == 0 {
					// Batch slot IDs are absolute, so degraded emissions go
					// straight into the lineage (streams emit estimate events
					// from the Streamer, which knows the absolute slot).
					p.cfg.Trace.Emit(trace.KindEstimate, 0, int64(i), 1, int64(res.Estimates[i].Kind))
				}
			}
		}
		p.po.degraded.Add(deg)
		if hop == 0 {
			hopTrace.EndArgs(0, int64(slots))
			if deg > 0 {
				p.cfg.Flight.Offer(trace.ReasonDegradedEstimates, 0, nil)
			}
		}
	} else if hop == 0 {
		hopTrace.EndArgs(0, int64(slots))
	}
	return res
}

// ProcessSeries is the one-call convenience: build a pipeline and process.
func ProcessSeries(s *csi.Series, cfg Config) (*Result, error) {
	p, err := NewPipeline(s, cfg)
	if err != nil {
		return nil, err
	}
	return p.Process(), nil
}

// splitAtInteriorIdles cuts each segment wherever the (median-smoothed)
// movement indicator stays at or above the trigger threshold for at least
// idleLen consecutive slots; sub-segments shorter than minLen are dropped.
func splitAtInteriorIdles(segs [][2]int, indSm []float64, threshold float64, idleLen, minLen int) [][2]int {
	if idleLen < 1 {
		return segs
	}
	var out [][2]int
	for _, seg := range segs {
		start := seg[0]
		i := seg[0]
		for i < seg[1] {
			if indSm[i] < threshold {
				i++
				continue
			}
			j := i
			for j < seg[1] && indSm[j] >= threshold {
				j++
			}
			if j-i >= idleLen {
				if i-start >= minLen {
					out = append(out, [2]int{start, i})
				}
				start = j
			}
			i = j
		}
		if seg[1]-start >= minLen {
			out = append(out, [2]int{start, seg[1]})
		}
	}
	return out
}
