package experiments

import (
	"fmt"
	"math"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/geom"
	"rim/internal/imu"
	"rim/internal/sigproc"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// Fig4Result carries the TRRS-vs-displacement series for shape tests.
type Fig4Result struct {
	Report *Report
	// DistancesMM and SelfTRRS: self-TRRS against displacement (Fig. 4a).
	DistancesMM []float64
	SelfTRRS    []float64
	// CrossRelMM and CrossTRRS: cross-antenna TRRS against the relative
	// distance around the antenna separation (Fig. 4b) — the peak sits at
	// relative distance 0, i.e. where the following antenna reaches the
	// leading antenna's footprint.
	CrossRelMM []float64
	CrossTRRS  []float64
}

// Fig4 reproduces "Spatial resolution of TRRS": an antenna moves at
// constant speed; the TRRS of each antenna against its own past snapshots
// (self) and against another antenna's snapshots (cross, with virtual
// massive boosting) is plotted against relative displacement. The paper
// observes an immediate drop within millimeters and a ~1 cm unambiguous
// peak width.
func Fig4(scale Scale) *Fig4Result {
	setup := NewSetup(scale, 0, 401)
	rate := scale.Rate()
	speed := 0.25
	arr := array.NewLinear3(Spacing)
	tr := traj.Line(rate, setup.Area, 0, 0, 0.5, speed)
	s, err := setup.Acquire(arr, tr, 402)
	if err != nil {
		panic(err)
	}
	e := trrs.NewEngine(s)
	mmPerSlot := speed / rate * 1000

	rep := &Report{
		ID:         "Fig. 4",
		Title:      "Spatial resolution of TRRS",
		PaperClaim: "self-TRRS drops by up to 0.3 within a few mm, decreases within ~1 cm; cross-antenna TRRS peaks at the antenna distance and decays the same way at lower absolute values",
		Columns:    []string{"series", "x (mm)", "TRRS"},
	}
	res := &Fig4Result{Report: rep}

	// Reference slot in steady motion, averaged with Eq. 4's virtual
	// massive window.
	t0 := s.NumSlots() / 2
	v := scale.Pick(10, 30)
	avgAt := func(i, j, lag int) float64 {
		var sum float64
		n := 0
		for _, tt := range []int{t0 - 20, t0, t0 + 20} {
			var sv float64
			m := 0
			for k := -v / 2; k <= v/2; k++ {
				sv += e.Base(i, j, tt+k, tt+k-lag)
				m++
			}
			sum += sv / float64(m)
			n++
		}
		return sum / float64(n)
	}

	// Fig. 4a: self-TRRS out to 40 mm (averaged over the 3 antennas).
	maxLag := int(40 / mmPerSlot)
	for lag := 0; lag <= maxLag; lag += scale.Pick(2, 1) {
		var self float64
		for a := 0; a < 3; a++ {
			self += avgAt(a, a, lag)
		}
		mm := float64(lag) * mmPerSlot
		res.DistancesMM = append(res.DistancesMM, mm)
		res.SelfTRRS = append(res.SelfTRRS, self/3)
	}
	// Fig. 4b: cross-TRRS of the adjacent pair (0,1) against the relative
	// distance around its separation. Pair (0,1) with the array moving
	// along +X: antenna 0 retraces antenna 1, so the peak sits at lag =
	// separation/speed.
	sep := Spacing * 1000 // mm
	for rel := -20.0; rel <= 40; rel += scale.PickF(5, 2.5) {
		lag := int(math.Round((sep + rel) / mmPerSlot))
		res.CrossRelMM = append(res.CrossRelMM, rel)
		res.CrossTRRS = append(res.CrossTRRS, avgAt(0, 1, lag))
	}
	for i := range res.DistancesMM {
		rep.AddRow("self", fmt.Sprintf("%.1f", res.DistancesMM[i]),
			fmt.Sprintf("%.3f", res.SelfTRRS[i]))
	}
	for i := range res.CrossRelMM {
		rep.AddRow("cross(0,1)", fmt.Sprintf("%+.1f", res.CrossRelMM[i]),
			fmt.Sprintf("%.3f", res.CrossTRRS[i]))
	}
	return res
}

// Fig5Result carries the aligned-pair sequence of the square trajectory.
type Fig5Result struct {
	Report *Report
	// LegHeadings are the measured body-frame headings of the four legs
	// in degrees.
	LegHeadings []float64
	// TrueHeadings are the ground-truth leg directions in degrees.
	TrueHeadings []float64
}

// Fig5 reproduces "Alignment matrices of a square-shape trajectory": a
// hexagonal array traces a square without turning; the aligned pairs (and
// hence headings) must step through the four leg directions in turn.
func Fig5(scale Scale) *Fig5Result {
	setup := NewSetup(scale, 0, 405)
	rate := scale.Rate()
	arr := array.NewHexagonal(Spacing)
	side := scale.PickF(0.8, 1.5)
	b := traj.NewBuilder(rate, geom.Pose{Pos: setup.Area})
	b.Pause(0.6)
	var legSpan [][2]int
	for _, dir := range []float64{0, 90, 180, 270} {
		s0 := b.NumSamples()
		b.MoveDir(geom.Rad(dir), side, 0.4)
		legSpan = append(legSpan, [2]int{s0, b.NumSamples()})
		b.Pause(0.8)
	}
	tr := b.Build()
	s, err := setup.Acquire(arr, tr, 406)
	if err != nil {
		panic(err)
	}
	res, err := core.ProcessSeries(s, CoreConfig(scale, arr))
	if err != nil {
		panic(err)
	}
	rep := &Report{
		ID:         "Fig. 5",
		Title:      "Alignment matrices of a square-shape trajectory",
		PaperClaim: "aligned pairs switch through the four leg directions in turn (1v3, 1v6, then reversed)",
		Columns:    []string{"leg", "true heading (deg)", "measured heading (deg)", "distance (m)"},
	}
	out := &Fig5Result{Report: rep, TrueHeadings: []float64{0, 90, 180, -90}}
	// Match each leg to the translate segment overlapping it most.
	for li, span := range legSpan {
		var bestSeg *core.SegmentResult
		bestOverlap := 0
		for i := range res.Segments {
			seg := &res.Segments[i]
			if seg.Kind != core.MotionTranslate {
				continue
			}
			lo := max(seg.Start, span[0])
			hi := min(seg.End, span[1])
			if hi-lo > bestOverlap {
				bestOverlap = hi - lo
				bestSeg = seg
			}
		}
		if bestSeg == nil {
			rep.AddRow(fmt.Sprintf("%d", li+1),
				fmt.Sprintf("%.0f", out.TrueHeadings[li]), "unresolved", "-")
			continue
		}
		h := geom.Deg(bestSeg.HeadingBody)
		out.LegHeadings = append(out.LegHeadings, h)
		rep.AddRow(fmt.Sprintf("%d", li+1),
			fmt.Sprintf("%.0f", out.TrueHeadings[li]),
			fmt.Sprintf("%.0f", h),
			fmt.Sprintf("%.2f", bestSeg.Distance))
	}
	return out
}

// Fig6Result carries the deviated-retracing peak statistics.
type Fig6Result struct {
	Report *Report
	// PeakByDeviation maps deviation angle (deg) to the median tracked
	// peak TRRS; PromByDeviation maps it to the median peak prominence
	// (peak minus off-peak floor), the quantity that actually decides
	// whether alignment is usable.
	PeakByDeviation map[int]float64
	PromByDeviation map[int]float64
}

// Fig6 reproduces "Antenna alignment in case of deviated retracing": the
// array moves at an angle slightly off a pair's axis; the alignment peak
// weakens but survives. With the adjacent pair (Δd = λ/2) the theoretical
// tolerance is arcsin(0.2λ/Δd) ≈ 24°, and the paper demonstrates 15°.
func Fig6(scale Scale) *Fig6Result {
	setup := NewSetup(scale, 0, 407)
	rate := scale.Rate()
	arr := array.NewLinear3(Spacing)
	rep := &Report{
		ID:         "Fig. 6",
		Title:      "Antenna alignment under deviated retracing",
		PaperClaim: "TRRS peaks much weaker but still evident at 15° deviation; tolerance ≈ arcsin(0.2λ/Δd)",
		Columns:    []string{"deviation (deg)", "median peak TRRS", "median prominence"},
	}
	out := &Fig6Result{
		Report:          rep,
		PeakByDeviation: map[int]float64{},
		PromByDeviation: map[int]float64{},
	}
	for _, devDeg := range []int{0, 15, 40} {
		b := traj.NewBuilder(rate, geom.Pose{Pos: setup.Area})
		b.Pause(0.3)
		// Move off-axis by devDeg while the body (and pair axis) stays
		// put.
		b.MoveDir(geom.Rad(float64(devDeg)), 0.8, 0.4)
		tr := b.Build()
		s, err := setup.Acquire(arr, tr, 408+int64(devDeg))
		if err != nil {
			panic(err)
		}
		e := trrs.NewEngine(s)
		w := int(0.3 * rate)
		// Adjacent pair (0,1): Δd = λ/2, tolerance ≈ 24°.
		m := e.PairMatrix(0, 1, w, scale.Pick(16, 30))
		start := int(0.6 * rate)
		track := align.TrackPeaks(m, start, m.NumSlots()-5, align.DefaultTrackConfig())
		peak := sigproc.Median(track.Vals)
		// Peak elevation at the *expected* alignment lag above the row's
		// TRRS floor (the paper's Fig. 6b compares peak heights at the
		// alignment position): under deviation the aligned antennas pass
		// at a closest approach of Δd·sin(α), so the TRRS there sinks
		// toward the floor as α grows past the tolerance.
		expLag := int(math.Round(Spacing * math.Cos(geom.Rad(float64(devDeg))) / 0.4 * rate))
		var elevs []float64
		for t := start; t < m.NumSlots()-5; t++ {
			elevs = append(elevs, m.At(t, expLag)-sigproc.Median(m.Vals[t]))
		}
		prom := sigproc.Median(elevs)
		out.PeakByDeviation[devDeg] = peak
		out.PromByDeviation[devDeg] = prom
		rep.AddRow(fmt.Sprintf("%d", devDeg), fmt.Sprintf("%.3f", peak), fmt.Sprintf("%.3f", prom))
	}
	return out
}

// Fig7Result carries the movement-detection indicator curves.
type Fig7Result struct {
	Report *Report
	// StopsDetectedRIM / StopsDetectedIMU count how many of the transient
	// stops each detector resolves.
	StopsDetectedRIM int
	StopsDetectedIMU int
	NumStops         int
}

// Fig7 reproduces "Movement detection": a stop-and-go trace with transient
// stops; RIM's TRRS indicator resolves every stop while the accelerometer/
// gyroscope energy detector misses them.
func Fig7(scale Scale) *Fig7Result {
	setup := NewSetup(scale, 0, 409)
	rate := scale.Rate()
	arr := array.NewLinear3(Spacing)
	numStops := 3
	stop := 0.7
	b := traj.NewBuilder(rate, geom.Pose{Pos: setup.Area})
	b.Pause(2)
	for i := 0; i < numStops+1; i++ {
		b.MoveDir(0, 0.8, 0.6)
		if i < numStops {
			b.Pause(stop)
		}
	}
	b.Pause(2)
	tr := b.Build()
	s, err := setup.Acquire(arr, tr, 410)
	if err != nil {
		panic(err)
	}
	e := trrs.NewEngine(s)
	mcfg := align.DefaultMovementConfig()
	rimInd := align.MovementIndicator(e, mcfg)
	readings := imu.Simulate(tr, imu.DefaultConfig(411))
	imuInd := imu.MovementIndicator(readings, rate, 1.0)

	// A stop is "detected" when the indicator crosses its threshold
	// within the stop interval.
	stopDetected := func(ind []float64, static func(v float64) bool) int {
		count := 0
		cursor := 0
		// Re-derive stop intervals from ground truth.
		for i := 1; i < len(tr.Samples); i++ {
			mv := tr.Samples[i].Vel.Norm() > 0
			pv := tr.Samples[i-1].Vel.Norm() > 0
			if pv && !mv { // stop begins
				start := i
				end := i
				for end < len(tr.Samples) && tr.Samples[end].Vel.Norm() == 0 {
					end++
				}
				// Only transient stops (not the long head/tail pauses).
				if float64(end-start)/rate < 1.5 && start > int(2.5*rate) && end < len(tr.Samples)-int(1.5*rate) {
					for k := start; k < end && k < len(ind); k++ {
						if static(ind[k]) {
							count++
							break
						}
					}
				}
				cursor = end
			}
		}
		_ = cursor
		return count
	}
	res := &Fig7Result{NumStops: numStops}
	res.StopsDetectedRIM = stopDetected(rimInd, func(v float64) bool { return v >= mcfg.Threshold })
	res.StopsDetectedIMU = stopDetected(imuInd, func(v float64) bool { return v < 0.25 })

	rep := &Report{
		ID:         "Fig. 7",
		Title:      "Movement detection (TRRS vs accelerometer/gyroscope)",
		PaperClaim: "RIM detects all transient stops; Acc and Gyr both fail to detect the three transient stops",
		Columns:    []string{"detector", "transient stops detected", "of"},
	}
	rep.AddRow("RIM (TRRS)", fmt.Sprintf("%d", res.StopsDetectedRIM), fmt.Sprintf("%d", numStops))
	rep.AddRow("Acc+Gyr energy", fmt.Sprintf("%d", res.StopsDetectedIMU), fmt.Sprintf("%d", numStops))
	res.Report = rep
	return res
}

// Fig8Result carries the peak-tracking accuracy of a back-and-forth move.
type Fig8Result struct {
	Report *Report
	// HitRate is the fraction of steady-state slots where the tracked lag
	// matches the ground-truth lag within 2 slots.
	HitRate float64
	// SignFlip reports whether the tracked lag changed sign between the
	// forward and backward phases.
	SignFlip bool
}

// Fig8 reproduces "TRRS peak tracking": a forward-then-backward movement
// whose alignment lag flips sign; the DP tracker must follow the ridge
// through noise.
func Fig8(scale Scale) *Fig8Result {
	setup := NewSetup(scale, 0, 412)
	rate := scale.Rate()
	speed := 0.4
	arr := array.NewLinear3(Spacing)
	tr := traj.BackAndForth(rate, setup.Area, 0, scale.PickF(0.8, 2), speed)
	s, err := setup.Acquire(arr, tr, 413)
	if err != nil {
		panic(err)
	}
	e := trrs.NewEngine(s)
	w := int(0.3 * rate)
	m := e.PairMatrix(0, 2, w, scale.Pick(16, 30))
	track := align.TrackPeaks(m, 0, m.NumSlots(), align.DefaultTrackConfig())

	wantLag := int(math.Round(2 * Spacing / speed * rate))
	half := len(tr.Samples) / 2
	hits, total := 0, 0
	sawPos, sawNeg := false, false
	for k, lag := range track.Lags {
		truthLag := wantLag
		if k > half {
			truthLag = -wantLag
		}
		// Steady state only: skip the warmup after each reversal.
		if k < wantLag+5 || (k > half-5 && k < half+wantLag+10) || k > len(track.Lags)-5 {
			continue
		}
		total++
		if int(math.Abs(float64(lag-truthLag))) <= 2 {
			hits++
		}
		if lag > 0 {
			sawPos = true
		}
		if lag < 0 {
			sawNeg = true
		}
	}
	res := &Fig8Result{}
	if total > 0 {
		res.HitRate = float64(hits) / float64(total)
	}
	res.SignFlip = sawPos && sawNeg
	rep := &Report{
		ID:         "Fig. 8",
		Title:      "TRRS peak tracking (dynamic programming)",
		PaperClaim: "alignment peaks identified accurately and robustly; lag sign flips between forward and backward phases",
		Columns:    []string{"metric", "value"},
	}
	rep.AddRow("steady-state lag hit rate", fmt.Sprintf("%.2f", res.HitRate))
	rep.AddRow("lag sign flip observed", fmt.Sprintf("%v", res.SignFlip))
	res.Report = rep
	return res
}
