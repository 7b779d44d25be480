package rim

import (
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/quality"
)

var updateBenchObs = flag.Bool("update-bench-obs", false, "rewrite BENCH_obs.json with this machine's measurements")

// obsBaseline is the committed observability-overhead baseline. The fixture
// pins the streaming workload; the recorded numbers document the machine
// the baseline was taken on. Like BENCH_trrs.json, regressions are judged
// by ratios measured live on the current machine, never by someone else's
// absolute nanoseconds.
type obsBaseline struct {
	Fixture struct {
		Ants  int   `json:"ants"`
		Tx    int   `json:"tx"`
		Sub   int   `json:"sub"`
		Slots int   `json:"slots"`
		Seed  int64 `json:"seed"`
	} `json:"fixture"`
	Baseline struct {
		Cores int `json:"cores"`
		// NilNsPerOp is the measured cost of one disabled instrumentation
		// bundle (nil counter increment + nil span start/end).
		NilNsPerOp float64 `json:"nil_ns_per_op"`
		// NilNsPerSlot / LiveNsPerSlot are the streaming replay costs with
		// the registry detached vs attached.
		NilNsPerSlot  float64 `json:"nil_ns_per_slot"`
		LiveNsPerSlot float64 `json:"live_ns_per_slot"`
		// NilOverheadFrac bounds the disabled-instrumentation share of a
		// slot (opsPerSlotBudget nil bundles against the measured slot
		// cost); LiveOverheadFrac is the measured live-registry slowdown.
		NilOverheadFrac  float64 `json:"nil_overhead_frac"`
		LiveOverheadFrac float64 `json:"live_overhead_frac"`
		// QualityNsPerSlot / QualityOverheadFrac record the replay cost
		// with the estimator-quality engine attached on top of the live
		// registry, and its slowdown over the nil-registry replay.
		QualityNsPerSlot    float64 `json:"quality_ns_per_slot"`
		QualityOverheadFrac float64 `json:"quality_overhead_frac"`
	} `json:"baseline"`
	Note string `json:"note"`
}

const obsBaselineFile = "BENCH_obs.json"

// opsPerSlotBudget is a deliberately generous ceiling on disabled
// instrumentation call sites charged to one streamed slot (ingest counters
// and spans plus the amortized per-hop stage spans and counters; the real
// count is under a dozen).
const opsPerSlotBudget = 64

// obsGuardSeries rebuilds the baseline's deterministic random fixture.
func obsGuardSeries(bl *obsBaseline) *csi.Series {
	rng := rand.New(rand.NewSource(bl.Fixture.Seed))
	f := bl.Fixture
	s := &csi.Series{
		Rate: 100, NumAnts: f.Ants, NumTx: f.Tx, NumSub: f.Sub,
		H: make([][][][]complex128, f.Ants),
	}
	for a := 0; a < f.Ants; a++ {
		s.H[a] = make([][][]complex128, f.Tx)
		for tx := 0; tx < f.Tx; tx++ {
			s.H[a][tx] = make([][]complex128, f.Slots)
			for t := 0; t < f.Slots; t++ {
				v := make([]complex128, f.Sub)
				for k := range v {
					v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				s.H[a][tx][t] = v
			}
		}
	}
	return s
}

// nilOpCost measures one disabled instrumentation bundle: a nil-counter
// increment, a nil-span start/end (no clock reads, no atomics), and the
// nil estimator-quality calls the streamer and fusion hot paths now carry.
func nilOpCost() time.Duration {
	var c *obs.Counter
	var h *obs.Histogram
	var e *quality.Engine
	var m *quality.Monitor
	const n = 1 << 21
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
		sp := obs.StartSpan(h)
		sp.End()
		e.ObserveKappa(0.5)
		e.ObserveOutcome(0.5, true)
		m.Innovation(0, "nil", 0, 1)
	}
	return time.Since(t0) / n
}

// guardStreamConfig is the streaming configuration the overhead guards
// replay: the Fast-scale window on the linear array, nothing attached.
func guardStreamConfig() core.StreamConfig {
	cfg := core.StreamConfig{Core: core.DefaultConfig(array.NewLinear3(0.029))}
	cfg.Core.WindowSeconds = 0.3
	cfg.Core.V = 16
	return cfg
}

// replayOnce streams the whole fixture through a fresh streamer built from
// cfg and flushes it.
func replayOnce(s *csi.Series, cfg core.StreamConfig) {
	st, err := core.NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		panic(err)
	}
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
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
}

// pairedOverhead judges the slowdown of replaying under instrumented
// against bare on interleaved paired samples (guardRatio), so machine
// contention slows both sides alike. It returns the favorable overhead
// fraction (instrumented/bare − 1, budget escalating until it clears
// ceiling) and the best bare and instrumented wall times per slot.
func pairedOverhead(s *csi.Series, bare, instrumented core.StreamConfig, ceiling float64) (frac float64, bareSlot, instSlot time.Duration) {
	ratio, bareBest, instBest := guardRatio(1/(1+ceiling), 4, 3,
		func() { replayOnce(s, bare) },
		func() { replayOnce(s, instrumented) })
	slots := time.Duration(s.NumSlots())
	return 1/ratio - 1, bareBest / slots, instBest / slots
}

// TestObsOverheadGuard is the observability overhead regression guard: on
// the committed streaming fixture, disabled instrumentation (nil registry)
// must stay invisible on the hot path. The uninstrumented code no longer
// exists to diff against, so the bound is constructed: the measured cost
// of a disabled instrumentation bundle times a generous per-slot call-site
// budget must stay under 2% of the measured per-slot streaming cost. The
// live-registry replay is additionally checked against a loose ceiling so
// switching metrics on can never silently become catastrophic. Run with
// -update-bench-obs to re-record BENCH_obs.json.
func TestObsOverheadGuard(t *testing.T) {
	raw, err := os.ReadFile(obsBaselineFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	var bl obsBaseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		t.Fatalf("corrupt %s: %v", obsBaselineFile, err)
	}
	if bl.Fixture.Slots <= 0 || bl.Fixture.Ants <= 0 {
		t.Fatalf("degenerate baseline: %+v", bl)
	}

	s := obsGuardSeries(&bl)
	perOp := nilOpCost()
	bare := guardStreamConfig()
	live := guardStreamConfig()
	live.Core.Obs = obs.NewRegistry()
	liveFrac, nilSlot, liveSlot := pairedOverhead(s, bare, live, 0.25)
	qual := guardStreamConfig()
	qual.Core.Obs = obs.NewRegistry()
	qual.Core.Quality = quality.New(quality.Config{Obs: qual.Core.Obs})
	qualFrac, nilSlot2, qualSlot := pairedOverhead(s, bare, qual, 0.30)
	if nilSlot2 < nilSlot {
		nilSlot = nilSlot2
	}

	nilFrac := float64(perOp) * opsPerSlotBudget / float64(nilSlot)
	t.Logf("cores=%d nil op=%v slot(nil)=%v slot(live)=%v slot(quality)=%v nil-budget overhead=%.3f%% live overhead=%.1f%% quality overhead=%.1f%%",
		runtime.GOMAXPROCS(0), perOp, nilSlot, liveSlot, qualSlot, nilFrac*100, liveFrac*100, qualFrac*100)

	if nilFrac >= 0.02 {
		t.Errorf("disabled instrumentation budget %.2f%% of a slot (>= 2%%): %v per op, %v per slot",
			nilFrac*100, perOp, nilSlot)
	}
	// Loose ceiling: the live registry is allowed real cost (atomics, clock
	// reads) but must never dominate the pipeline arithmetic.
	if liveFrac > 0.25 {
		t.Errorf("live registry slows streaming by %.0f%% (> 25%%): nil %v/slot, live %v/slot",
			liveFrac*100, nilSlot, liveSlot)
	}
	// The quality engine adds per-slot histogram observations on top of the
	// live registry; it gets the same kind of loose ceiling, measured and
	// recorded rather than assumed free.
	if qualFrac > 0.30 {
		t.Errorf("quality engine slows streaming by %.0f%% (> 30%%): nil %v/slot, quality %v/slot",
			qualFrac*100, nilSlot, qualSlot)
	}

	if *updateBenchObs {
		bl.Baseline.Cores = runtime.GOMAXPROCS(0)
		bl.Baseline.NilNsPerOp = float64(perOp.Nanoseconds())
		bl.Baseline.NilNsPerSlot = float64(nilSlot.Nanoseconds())
		bl.Baseline.LiveNsPerSlot = float64(liveSlot.Nanoseconds())
		bl.Baseline.NilOverheadFrac = nilFrac
		bl.Baseline.LiveOverheadFrac = liveFrac
		bl.Baseline.QualityNsPerSlot = float64(qualSlot.Nanoseconds())
		bl.Baseline.QualityOverheadFrac = qualFrac
		out, err := json.MarshalIndent(&bl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", obsBaselineFile)
	}
}
