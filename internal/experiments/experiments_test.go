package experiments

import (
	"math"
	"strings"
	"testing"

	"rim/internal/apps/tracking"
	"rim/internal/array"
	"rim/internal/camera"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/imu"
	"rim/internal/sigproc"
	"rim/internal/traj"
)

// The experiment tests assert the paper's qualitative shapes at Fast scale:
// who wins, by roughly what factor, where crossovers fall. Absolute numbers
// differ from the paper (simulated substrate), which is expected.

func TestReportString(t *testing.T) {
	r := &Report{
		ID: "Fig. X", Title: "demo", PaperClaim: "c",
		Columns: []string{"a", "bb"},
	}
	r.AddRow("1", "2")
	r.AddNote("n=%d", 3)
	s := r.String()
	for _, want := range []string{"Fig. X", "demo", "paper: c", "a", "bb", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if Fast.Rate() != 100 || Full.Rate() != 200 {
		t.Error("rates")
	}
	if Fast.Pick(1, 2) != 1 || Full.Pick(1, 2) != 2 {
		t.Error("Pick")
	}
	if Fast.PickF(1, 2) != 1 || Full.PickF(1, 2) != 2 {
		t.Error("PickF")
	}
	if Fast.RF().NumSubcarriers >= Full.RF().NumSubcarriers {
		t.Error("fast RF should be smaller")
	}
	d := DistanceErrors{0.01, 0.02}
	cm := d.Centimeters()
	if cm[0] != 1 || cm[1] != 2 {
		t.Error("Centimeters")
	}
}

func TestSetupPanicsOnBadAP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown AP id")
		}
	}()
	NewSetup(Fast, 99, 1)
}

func TestFig4Shape(t *testing.T) {
	r := Fig4(Fast)
	if len(r.DistancesMM) < 5 {
		t.Fatal("too few points")
	}
	// Self-TRRS starts at 1 and decays.
	if r.SelfTRRS[0] < 0.95 {
		t.Errorf("self-TRRS at 0 mm = %v", r.SelfTRRS[0])
	}
	// Find values near 5 mm and near 30+ mm.
	at := func(series []float64, mm float64) float64 {
		best, bi := math.Inf(1), 0
		for i, d := range r.DistancesMM {
			if v := math.Abs(d - mm); v < best {
				best, bi = v, i
			}
		}
		return series[bi]
	}
	if at(r.SelfTRRS, 5) <= at(r.SelfTRRS, 35) {
		t.Errorf("self-TRRS not decaying: 5mm=%v 35mm=%v", at(r.SelfTRRS, 5), at(r.SelfTRRS, 35))
	}
	if at(r.SelfTRRS, 35) > 0.85 {
		t.Errorf("self-TRRS at 35 mm = %v, want clear decay", at(r.SelfTRRS, 35))
	}
	// Cross-TRRS peaks where the following antenna reaches the leading
	// antenna's footprint (relative distance 0) and decays away from it.
	atRel := func(rel float64) float64 {
		best, bi := math.Inf(1), 0
		for i, d := range r.CrossRelMM {
			if v := math.Abs(d - rel); v < best {
				best, bi = v, i
			}
		}
		return r.CrossTRRS[bi]
	}
	if atRel(0) <= atRel(-20) || atRel(0) <= atRel(40) {
		t.Errorf("cross-TRRS not peaked at alignment: -20mm=%v 0=%v +40mm=%v",
			atRel(-20), atRel(0), atRel(40))
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5(Fast)
	if len(r.LegHeadings) != 4 {
		t.Fatalf("legs resolved = %d, want 4\n%s", len(r.LegHeadings), r.Report)
	}
	for i, want := range r.TrueHeadings {
		diff := math.Abs(r.LegHeadings[i] - want)
		for diff > 180 {
			diff = math.Abs(diff - 360)
		}
		if diff > 15 {
			t.Errorf("leg %d heading %v, want %v", i+1, r.LegHeadings[i], want)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(Fast)
	p0, p15, p40 := r.PromByDeviation[0], r.PromByDeviation[15], r.PromByDeviation[40]
	// Peak prominence weakens with deviation but survives at 15° (within
	// the arcsin(0.2λ/Δd) ≈ 24° tolerance) and collapses beyond it.
	if !(p0 > p15) {
		t.Errorf("prominence at 0° (%v) not above 15° (%v)", p0, p15)
	}
	if p15 < 0.05 {
		t.Errorf("15° deviation prominence %v too weak — paper says still evident", p15)
	}
	if !(p15 > p40) {
		t.Errorf("prominence at 15° (%v) not above 40° (%v)", p15, p40)
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(Fast)
	if r.StopsDetectedRIM != r.NumStops {
		t.Errorf("RIM detected %d/%d transient stops", r.StopsDetectedRIM, r.NumStops)
	}
	if r.StopsDetectedIMU >= r.NumStops {
		t.Errorf("IMU detector resolved %d/%d stops — expected it to miss them",
			r.StopsDetectedIMU, r.NumStops)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(Fast)
	if r.HitRate < 0.6 {
		t.Errorf("lag hit rate %v too low", r.HitRate)
	}
	if !r.SignFlip {
		t.Error("lag sign did not flip on back-and-forth")
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(Fast)
	desk := sigproc.Median(r.Desktop.Centimeters())
	los := sigproc.Median(r.CartLOS.Centimeters())
	nlos := sigproc.Median(r.CartNLOS.Centimeters())
	// Desktop (stable, short) beats carts; all stay in the tens of cm at
	// worst; LOS and NLOS comparable (within 3x either way).
	if desk > 15 {
		t.Errorf("desktop median %v cm too large\n%s", desk, r.Report)
	}
	if los > 40 || nlos > 40 {
		t.Errorf("cart medians too large: LOS %v, NLOS %v cm\n%s", los, nlos, r.Report)
	}
	if nlos > 3*los+5 {
		t.Errorf("NLOS (%v cm) collapsed relative to LOS (%v cm)", nlos, los)
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12(Fast)
	if r.MeanErrDeg > 12 {
		t.Errorf("mean heading error %v°, paper reports 6.1°\n%s", r.MeanErrDeg, r.Report)
	}
	if r.FracWithin10 < 0.6 {
		t.Errorf("only %.0f%% within 10°\n%s", r.FracWithin10*100, r.Report)
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(Fast)
	rim := sigproc.Median(r.RIMErrDeg)
	gyro := sigproc.Median(r.GyroErrDeg)
	// The paper's crossover: gyroscope clearly beats RIM on rotation.
	if gyro >= rim {
		t.Errorf("gyro median %v° not better than RIM %v°", gyro, rim)
	}
	if rim > 60 {
		t.Errorf("RIM rotation error %v° too large (paper ~30°)", rim)
	}
}

func TestFig14Shape(t *testing.T) {
	r := Fig14(Fast)
	if len(r.MedianCmByAP) != 6 {
		t.Fatalf("AP locations covered = %d", len(r.MedianCmByAP))
	}
	for ap, med := range r.MedianCmByAP {
		if med > 30 {
			t.Errorf("AP #%d median %v cm — location should barely matter\n%s", ap, med, r.Report)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := Fig15(Fast)
	if len(r.ErrCmAtMeter) < 3 {
		t.Fatal("too few meter marks")
	}
	last := r.ErrCmAtMeter[len(r.ErrCmAtMeter)-1]
	// No blow-up: error at the end stays bounded (paper: 3–14 cm over
	// 10 m; allow generous slack at fast scale).
	if last > 40 {
		t.Errorf("error accumulated to %v cm\n%s", last, r.Report)
	}
}

func TestFig16Shape(t *testing.T) {
	r := Fig16(Fast)
	e200 := r.MedianCmByRate[200]
	e20 := r.MedianCmByRate[20]
	if e20 < 2*e200 {
		t.Errorf("20 Hz (%v cm) should be much worse than 200 Hz (%v cm)\n%s",
			e20, e200, r.Report)
	}
	if e200 > 25 {
		t.Errorf("200 Hz median %v cm too large", e200)
	}
}

func TestFig17Shape(t *testing.T) {
	r := Fig17(Fast)
	e1 := r.MedianCmByV[1]
	eMax := r.MedianCmByV[r.Vs[len(r.Vs)-1]]
	if e1 < eMax {
		t.Errorf("V=1 (%v cm) should be worse than V=%d (%v cm)\n%s",
			e1, r.Vs[len(r.Vs)-1], eMax, r.Report)
	}
}

func TestDynShape(t *testing.T) {
	r := Dyn(Fast)
	// Dynamics must not collapse accuracy: within 3x of static plus slack.
	if r.DynamicErrCm > 3*r.StaticErrCm+10 {
		t.Errorf("dynamics collapsed accuracy: static %v cm, dynamic %v cm",
			r.StaticErrCm, r.DynamicErrCm)
	}
}

func TestFig18Shape(t *testing.T) {
	r := Fig18(Fast)
	// Paper: 2.4 cm mean on 20 cm letters; we use 40 cm glyphs on the fast
	// channel, accept < 8 cm.
	if r.OverallMeanCm > 8 {
		t.Errorf("handwriting mean error %v cm\n%s", r.OverallMeanCm, r.Report)
	}
}

func TestFig19Shape(t *testing.T) {
	r := Fig19(Fast)
	if r.DetectionRate < 0.7 {
		t.Errorf("detection rate %.0f%%\n%s", r.DetectionRate*100, r.Report)
	}
	if r.Detected > 0 && float64(r.Correct)/float64(r.Detected) < 0.9 {
		t.Errorf("recognition accuracy %d/%d\n%s", r.Correct, r.Detected, r.Report)
	}
	if r.FalseTriggers > r.Total/4 {
		t.Errorf("false triggers %d of %d\n%s", r.FalseTriggers, r.Total, r.Report)
	}
}

func TestFig20Shape(t *testing.T) {
	r := Fig20(Fast)
	if len(r.MedianErrM) != 2 {
		t.Fatal("want 2 traces")
	}
	for i, e := range r.MedianErrM {
		if e > 0.5 {
			t.Errorf("trace %d median error %v m\n%s", i+1, e, r.Report)
		}
	}
	for i, rel := range r.DistRelErr {
		if math.Abs(rel) > 20 {
			t.Errorf("trace %d distance off by %v%%", i+1, rel)
		}
	}
}

func TestFig21Shape(t *testing.T) {
	r := Fig21(Fast)
	// The PF must not be worse than raw dead reckoning (and usually wins
	// when the gyro drifts).
	if r.PFMedianErrM > r.RawMedianErrM+0.1 {
		t.Errorf("PF (%v m) worse than raw (%v m)\n%s",
			r.PFMedianErrM, r.RawMedianErrM, r.Report)
	}
	// Cross-backend golden: the ESKF has no floorplan, but ZUPT + mag
	// pseudo-measurements must keep it within the documented budget of the
	// particle-filter golden (DESIGN.md "Fusion backends & ZUPT": median
	// error within 0.5 m on the Fig. 21 walk) and no worse than raw dead
	// reckoning beyond noise.
	if r.ESKFMedianErrM > r.PFMedianErrM+0.5 {
		t.Errorf("ESKF (%v m) outside the 0.5 m budget of the PF golden (%v m)\n%s",
			r.ESKFMedianErrM, r.PFMedianErrM, r.Report)
	}
	if r.ESKFMedianErrM > r.RawMedianErrM+0.25 {
		t.Errorf("ESKF (%v m) clearly worse than raw dead reckoning (%v m)\n%s",
			r.ESKFMedianErrM, r.RawMedianErrM, r.Report)
	}
}

// TestESKFBeatsRawOnLongDriftWalk pins the point of the ESKF backend: on a
// long walk with an aggressively drifting gyro, the ZUPT pauses let the
// filter learn the gyro bias, so it must end up strictly better than raw
// dead reckoning of the same inputs.
func TestESKFBeatsRawOnLongDriftWalk(t *testing.T) {
	setup := NewSetupAt(Fast, 0, geom.Vec2{X: 9.5, Y: 12}, 7201)
	rate := Fast.Rate()
	arr := array.NewLinear3(Spacing)
	start := geom.Vec2{X: 8.75, Y: 5.5}
	// Four corridor legs separated by standing pauses: the pauses are the
	// ZUPT intervals that expose the biases.
	b := traj.NewBuilder(rate, geom.Pose{Pos: start, Theta: geom.Rad(90)})
	b.Pause(1)
	for i := 0; i < 4; i++ {
		b.MoveBody(0, 3, 0.5)
		b.Pause(1.2)
	}
	tr := b.Build()
	s, err := setup.Acquire(arr, tr, 7210)
	if err != nil {
		t.Fatal(err)
	}
	icfg := imu.DefaultConfig(7211)
	icfg.GyroBiasWalk = 1e-2 // drifts hard over ~30 s
	readings := imu.Simulate(tr, icfg)
	camCfg := camera.DefaultConfig(7212)
	cfg := CoreConfig(Fast, arr)
	initial := geom.Pose{Pos: start, Theta: geom.Rad(90)}

	raw, err := tracking.Fused(s, cfg, readings, tracking.FusedConfig{}, initial, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	eskfCfg := fusion.DefaultConfig(7213)
	eskfCfg.Backend = fusion.BackendESKF
	eskf, err := tracking.Fused(s, cfg, readings, tracking.FusedConfig{
		UsePF: true,
		PF:    eskfCfg,
	}, initial, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	if eskf.MedianError >= raw.MedianError {
		t.Errorf("ESKF median %.3f m not strictly better than raw dead reckoning %.3f m",
			eskf.MedianError, raw.MedianError)
	}
}

func TestAblationShapes(t *testing.T) {
	if r := AblationSanitize(Fast); r.Without < r.With {
		t.Errorf("sanitization off (%v cm) beat on (%v cm)\n%s", r.Without, r.With, r.Report)
	}
	if r := AblationDP(Fast); r.Without <= r.With {
		t.Errorf("argmax outlier rate (%v) not above DP (%v)\n%s", r.Without, r.With, r.Report)
	}
	if r := AblationAmplitude(Fast); r.Without >= r.With {
		t.Errorf("amplitude prominence (%v) not below TRRS (%v)\n%s", r.Without, r.With, r.Report)
	}
	// Pair averaging: must not hurt (often a modest win).
	if r := AblationPairAvg(Fast); r.With > r.Without+5 {
		t.Errorf("pair averaging hurt: with %v cm vs without %v cm\n%s",
			r.With, r.Without, r.Report)
	}
}

func TestExtWiBallShape(t *testing.T) {
	r := ExtWiBall(Fast)
	// The paper's positioning: RIM is roughly an order of magnitude more
	// accurate than ACF-based speed estimation. Demand at least 2x here.
	if r.RIMErrCm*2 > r.WiBallErrCm {
		t.Errorf("RIM (%v cm) not clearly better than WiBall (%v cm)\n%s",
			r.RIMErrCm, r.WiBallErrCm, r.Report)
	}
}

func TestExtHeadingShape(t *testing.T) {
	r := ExtHeading(Fast)
	if r.ContinuousMeanDeg > r.DiscreteMeanDeg+1 {
		t.Errorf("continuous heading (%v°) worse than discrete (%v°)\n%s",
			r.ContinuousMeanDeg, r.DiscreteMeanDeg, r.Report)
	}
}

func TestPerfShape(t *testing.T) {
	r := Perf(Fast)
	// 6 throughput rows (batch serial/parallel, stream recompute/
	// incremental, symmetric dedup, incremental hop) plus one row per
	// recorded stage histogram.
	if want := 6 + len(r.Stages); len(r.Report.Rows) != want {
		t.Fatalf("want %d rows, got %d\n%s", want, len(r.Report.Rows), r.Report)
	}
	// Timings are machine-dependent; only assert they are measurements.
	if r.SerialNs <= 0 || r.ParallelNs <= 0 || r.HopNs <= 0 ||
		r.RecomputeSlotsPerSec <= 0 || r.IncrementalSlotsPerSec <= 0 {
		t.Fatalf("non-positive measurement: %+v", r)
	}
	if r.BatchSpeedup <= 0 || r.StreamSpeedup <= 0 || r.SymmetricSpeedup <= 0 {
		t.Fatalf("non-positive speedup: %+v", r)
	}
	// The steady-state hop is allocation-free by contract.
	if r.HopAllocsPerOp != 0 {
		t.Errorf("steady-state hop allocates %.1f/op, want 0", r.HopAllocsPerOp)
	}
	// The instrumented replay must record every pipeline stage, with sane
	// (positive, ordered) percentiles.
	if len(r.Stages) != len(stageHistograms) {
		t.Fatalf("stages = %d, want %d: %+v", len(r.Stages), len(stageHistograms), r.Stages)
	}
	for _, sl := range r.Stages {
		if sl.Count == 0 || sl.P50 <= 0 || sl.P50 > sl.P90 || sl.P90 > sl.P99 {
			t.Errorf("degenerate stage latency: %+v", sl)
		}
	}
}
