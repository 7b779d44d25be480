package rim

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"rim/internal/fusion"
	"rim/internal/geom"
)

var updateFusionBench = flag.Bool("update-fusion-bench", false, "rewrite BENCH_fusion.json with this machine's measurements")

// fusionBenchBaseline is the committed fusion-backend cost baseline. As with
// BENCH_trrs.json, the fixture pins the workload and the guard judges the
// particle/ESKF ratio measured live on the running machine; the recorded
// nanoseconds only document the machine the baseline was taken on.
type fusionBenchBaseline struct {
	Fixture struct {
		Steps     int   `json:"steps"`
		Seed      int64 `json:"seed"`
		Particles int   `json:"particles"`
	} `json:"fixture"`
	Baseline struct {
		Cores          int     `json:"cores"`
		ParticleNsStep float64 `json:"particle_ns_step"`
		ESKFNsStep     float64 `json:"eskf_ns_step"`
		Ratio          float64 `json:"ratio"`
		ESKFAllocsStep float64 `json:"eskf_allocs_step"`
	} `json:"baseline"`
	Note string `json:"note"`
}

const fusionBaselineFile = "BENCH_fusion.json"

// fusionGuardInputs rebuilds the baseline's deterministic mixed tape:
// motion steps, degraded-quality steps, ZUPT steps and magnetometer steps.
func fusionGuardInputs(bl *fusionBenchBaseline) []fusion.Input {
	rng := rand.New(rand.NewSource(bl.Fixture.Seed))
	out := make([]fusion.Input, bl.Fixture.Steps)
	for i := range out {
		in := fusion.Input{
			DistDelta:  rng.Float64() * 0.05,
			ThetaDelta: (rng.Float64() - 0.5) * 0.04,
			Quality:    0.3 + rng.Float64()*0.7,
		}
		if i%13 < 3 {
			in.ZUPT = true
			in.DistDelta = rng.Float64() * 0.002
		}
		if i%4 == 0 {
			in.HasMag = true
			in.MagHeading = rng.Float64()
		}
		out[i] = in
	}
	return out
}

// TestFusionBenchGuard gates the cost contract of the fusion backends: on
// the committed mixed input tape the ESKF must process a step at least 5x
// cheaper than the default particle filter (it is the backend recommended
// for many concurrent sessions precisely because of that margin), and —
// without the race detector's instrumentation — an ESKF step must not
// allocate at all. The ratio is measured live on paired samples; run
// with -update-fusion-bench to re-record BENCH_fusion.json.
func TestFusionBenchGuard(t *testing.T) {
	raw, err := os.ReadFile(fusionBaselineFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	var bl fusionBenchBaseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		t.Fatalf("corrupt %s: %v", fusionBaselineFile, err)
	}
	if bl.Fixture.Steps <= 0 || bl.Fixture.Particles <= 0 {
		t.Fatalf("degenerate baseline: %+v", bl)
	}
	if !*updateFusionBench && bl.Baseline.Ratio < 5 {
		t.Fatalf("recorded ratio %.1fx below the promised 5x: %+v", bl.Baseline.Ratio, bl.Baseline)
	}

	inputs := fusionGuardInputs(&bl)
	start := geom.Pose{Pos: geom.Vec2{X: 1, Y: 1}}
	mkBackend := func(kind fusion.BackendKind) fusion.Backend {
		cfg := fusion.DefaultConfig(7)
		cfg.NumParticles = bl.Fixture.Particles
		cfg.Backend = kind
		b, err := fusion.New(nil, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	replay := func(kind fusion.BackendKind) func() {
		return func() {
			b := mkBackend(kind)
			for _, in := range inputs {
				b.Step(in)
			}
		}
	}
	// Paired, interleaved samples (guardRatio): contention from other
	// packages' tests slows both backends alike instead of one of them.
	const reps = 5
	ratio, pfBest, eskfBest := guardRatio(5, 4, reps,
		replay(fusion.BackendParticle), replay(fusion.BackendESKF))
	pfNs := float64(pfBest.Nanoseconds()) / float64(len(inputs))
	eskfNs := float64(eskfBest.Nanoseconds()) / float64(len(inputs))
	cores := runtime.GOMAXPROCS(0)
	t.Logf("cores=%d particle=%.0f ns/step eskf=%.0f ns/step ratio=%.1fx (baseline: %.1fx)",
		cores, pfNs, eskfNs, ratio, bl.Baseline.Ratio)
	if ratio < 5 {
		t.Errorf("ESKF step only %.1fx cheaper than the particle filter, want >= 5x (particle %.0f ns, eskf %.0f ns)",
			ratio, pfNs, eskfNs)
	}

	// Steady-state ESKF step allocation contract (meaningless under the
	// race detector, whose instrumentation allocates).
	eskfAllocs := bl.Baseline.ESKFAllocsStep
	if !raceEnabled {
		b := mkBackend(fusion.BackendESKF)
		k := 0
		eskfAllocs = testing.AllocsPerRun(200, func() {
			b.Step(inputs[k%len(inputs)])
			k++
		})
		if eskfAllocs != 0 {
			t.Errorf("ESKF step allocates %.1f times per op, want 0", eskfAllocs)
		}
	}

	if *updateFusionBench {
		bl.Baseline.Cores = cores
		bl.Baseline.ParticleNsStep = pfNs
		bl.Baseline.ESKFNsStep = eskfNs
		bl.Baseline.Ratio = ratio
		bl.Baseline.ESKFAllocsStep = eskfAllocs
		out, err := json.MarshalIndent(&bl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fusionBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", fusionBaselineFile)
	}
}
