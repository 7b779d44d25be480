package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/session"
	"rim/internal/traj"
)

// rate is the CSI packet rate of every simulated device, Hz.
const rate = 100.0

// template is one simulated walk. Sessions replay it endlessly from an
// offset; every walk ends where it starts, so the CSI is continuous where
// the replay wraps and the per-slot ground truth stays valid across wraps.
type template struct {
	series *csi.Series
	// step[i] is the ground-truth distance walked into slot i.
	step []float64
	// deadAnt, when >= 0, is flagged missing on the wire from template
	// slot deadFrom on, and stays dead across wraps: an RF chain that
	// failed mid-walk and never came back.
	deadAnt  int
	deadFrom int
}

func (t *template) slots() int { return t.series.NumSlots() }

// walkKind selects the motion of a template.
type walkKind int

const (
	// walkPaused is out-and-back along the array axis with pauses taking
	// about half the time (a person carrying the device and stopping).
	walkPaused walkKind = iota
	// walkTurns walks continuously along the array axis, turning back
	// three times per loop and never pausing.
	walkTurns
	// walkHexagon walks a closed hexagon, one 60° turn per leg, so each
	// leg follows one of the hexagonal array's pair directions.
	walkHexagon
)

// buildWalk builds walk j of the given kind. Walk shapes, like the radio
// environments, depend on j alone, not on the seed: the seed changes the
// receiver noise and the faults, while the motion and the channel it
// decorrelates — and with them the analysis work per hop and the
// accuracy — stay comparable from seed to seed.
func buildWalk(kind walkKind, j int) *traj.Trajectory {
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	f := float64(j%4) / 3 // spreads the shapes over four variants
	speed := 0.4 + 0.2*f
	switch kind {
	case walkPaused:
		d := 1.4 - 0.6*f
		move := 2 * d / speed
		p1 := (0.35 + 0.3*float64(j%3)/2) * move
		b.Pause(p1)
		b.MoveDir(0, d, speed)
		b.Pause(move - p1)
		b.MoveDir(math.Pi, d, speed)
	case walkTurns:
		a, back, c := 0.9+0.5*f, 0.6-0.3*f, 0.3+0.3*f
		b.MoveDir(0, a, speed)
		b.MoveDir(math.Pi, back, speed)
		b.MoveDir(0, c, speed)
		b.MoveDir(math.Pi, a-back+c, speed)
	case walkHexagon:
		side := 0.6 + 0.4*f
		b.Pause(0.5)
		for k := 0; k < 6; k++ {
			b.MoveDir(float64(j+k)*math.Pi/3, side, speed)
		}
		b.Pause(0.5)
	}
	return b.Build()
}

// buildTemplate simulates walk j's CSI. The radio environment (scatterer
// field) is fixed per template; seed draws the receiver's noise, phase
// errors and packet loss, and the faults. faulty adds Gilbert-Elliott
// bursty loss and kills one of the array's RF chains from mid-walk; the
// session falls back to the surviving sub-array but stays analyzable.
func buildTemplate(kind walkKind, j int, arr *array.Array, seed int64, faulty bool) (*template, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := rf.FastConfig()
	cfg.Seed = int64(100*int(kind) + j + 1)
	if faulty {
		cfg.Seed += 50
	}
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	tr := buildWalk(kind, j)
	rcv := csi.RealisticReceiver(seed + 1)
	t := &template{deadAnt: -1}
	if faulty {
		t.deadAnt = rng.Intn(arr.NumAntennas())
		mid := tr.Duration() / 2
		t.deadFrom = int(mid * rate)
		rcv.Faults = &faults.Model{
			Seed:     seed + 2,
			Loss:     faults.NewGilbertElliott(0.2, 8),
			Dropouts: []faults.Dropout{{Antenna: t.deadAnt, Start: mid}},
		}
	}
	s, err := csi.Collect(env, arr, tr, rcv).Process(true)
	if err != nil {
		return nil, fmt.Errorf("simulate walk (seed %d): %w", seed, err)
	}
	t.series = s
	t.step = make([]float64, len(tr.Samples))
	for i := 1; i < len(tr.Samples); i++ {
		t.step[i] = tr.Samples[i].Pose.Pos.Dist(tr.Samples[i-1].Pose.Pos)
	}
	return t, nil
}

// source is one session's endless frame sequence: frame k is template slot
// (off+k) mod L.
type source struct {
	id   string
	tmpl *template
	off  int
	// phase staggers a paced session's schedule within one hop, seconds.
	phase float64
}

func (s *source) spec() session.Spec {
	ser := s.tmpl.series
	return session.Spec{Rate: ser.Rate, NumAnts: ser.NumAnts, NumTx: ser.NumTx, NumSub: ser.NumSub}
}

// frame returns frame k's rows (aliasing the template) and missing mask.
// missing is filled in place and returned; it is nil when nothing is
// missing, as the wire decoder would deliver it.
func (s *source) frame(k int, snap [][][]complex128, missing []bool) ([][][]complex128, []bool) {
	ser := s.tmpl.series
	L := ser.NumSlots()
	slot := (s.off + k) % L
	dead := s.tmpl.deadAnt >= 0 && s.off+k >= s.tmpl.deadFrom
	any := false
	for a := 0; a < ser.NumAnts; a++ {
		for tx := 0; tx < ser.NumTx; tx++ {
			snap[a][tx] = ser.H[a][tx][slot]
		}
		missing[a] = ser.Missing[a][slot] || (dead && a == s.tmpl.deadAnt)
		any = any || missing[a]
	}
	if !any {
		return snap, nil
	}
	return snap, missing
}

// newFrame allocates a fresh frame shaped for s (the session queue owns
// what it is handed, so every ingested frame gets its own headers).
func (s *source) newFrame() ([][][]complex128, []bool) {
	ser := s.tmpl.series
	snap := make([][][]complex128, ser.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, ser.NumTx)
	}
	return snap, make([]bool, ser.NumAnts)
}

// series assembles frames [0, n) as a csi.Series, the input of the
// offline reference the session's output is checked against.
func (s *source) series(n int) *csi.Series {
	ser := s.tmpl.series
	out := &csi.Series{Rate: ser.Rate, NumAnts: ser.NumAnts, NumTx: ser.NumTx, NumSub: ser.NumSub,
		H: make([][][][]complex128, ser.NumAnts), Missing: make([][]bool, ser.NumAnts)}
	for a := range out.H {
		out.H[a] = make([][][]complex128, ser.NumTx)
		for tx := range out.H[a] {
			out.H[a][tx] = make([][]complex128, n)
		}
		out.Missing[a] = make([]bool, n)
	}
	snap, miss := s.newFrame()
	for k := 0; k < n; k++ {
		f, m := s.frame(k, snap, miss)
		for a := range f {
			for tx := range f[a] {
				out.H[a][tx][k] = f[a][tx]
			}
			out.Missing[a][k] = m != nil && m[a]
		}
	}
	return out
}

// truth returns the ground-truth distance walked over frames [0, n).
func (s *source) truth(n int) float64 {
	L := s.tmpl.slots()
	var d float64
	for k := 0; k < n; k++ {
		d += s.tmpl.step[(s.off+k)%L]
	}
	return d
}

// inputs is everything a workload sends, derived from the seed alone.
type inputs struct {
	sources []*source
}

// makeInputs derives a workload's sessions from its seed.
func makeInputs(workload string, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	build := func(n int, kind walkKind, arr *array.Array, faulty bool) ([]*template, error) {
		out := make([]*template, n)
		for i := range out {
			t, err := buildTemplate(kind, i, arr, rng.Int63(), faulty)
			if err != nil {
				return nil, err
			}
			out[i] = t
		}
		return out, nil
	}
	in := &inputs{}
	switch workload {
	case "paced-fleet":
		lin := array.NewLinear3(experiments.Spacing)
		clean, err := build(pacedTemplates, walkPaused, lin, false)
		if err != nil {
			return nil, err
		}
		bad, err := build(pacedFaultyTemplates, walkPaused, lin, true)
		if err != nil {
			return nil, err
		}
		// Every clean template carries the same number of sessions, spread
		// evenly over its loop; faulty ones start before their chain fails.
		nClean := pacedSessions - pacedSessions/pacedFaultyEvery
		for i, c, f := 0, 0, 0; i < pacedSessions; i++ {
			src := &source{id: fmt.Sprintf("walker-%03d", i), phase: float64(i) / pacedSessions * hopSeconds}
			if i%pacedFaultyEvery == pacedFaultyEvery-1 {
				t := bad[f%len(bad)]
				per := (pacedSessions / pacedFaultyEvery) / len(bad)
				src.tmpl, src.off = t, (f/len(bad))*t.deadFrom/per
				f++
			} else {
				t := clean[c%len(clean)]
				per := nClean / len(clean)
				src.tmpl, src.off = t, (c/len(clean))*t.slots()/per
				c++
			}
			in.sources = append(in.sources, src)
		}
	case "saturate-walk":
		lin := array.NewLinear3(experiments.Spacing)
		ts, err := build(saturateSessions, walkTurns, lin, false)
		if err != nil {
			return nil, err
		}
		for i, t := range ts {
			in.sources = append(in.sources, &source{id: fmt.Sprintf("walker-%03d", i), tmpl: t})
		}
	case "batch-replay":
		hex := array.NewHexagonal(experiments.Spacing)
		ts, err := build(batchTraces, walkHexagon, hex, false)
		if err != nil {
			return nil, err
		}
		for i, t := range ts {
			in.sources = append(in.sources, &source{id: fmt.Sprintf("trace-%03d", i), tmpl: t})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want paced-fleet, saturate-walk or batch-replay)", workload)
	}
	return in, nil
}

// digest hashes the first n frames of every source, bit for bit: equal
// digests mean the daemon would receive identical inputs.
func (in *inputs) digest(n int) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, s := range in.sources {
		h.Write([]byte(s.id))
		snap, miss := s.newFrame()
		for k := 0; k < n; k++ {
			f, m := s.frame(k, snap, miss)
			for a := range f {
				for tx := range f[a] {
					for _, c := range f[a][tx] {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(c)))
						h.Write(b[:])
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(c)))
						h.Write(b[:])
					}
				}
				if m != nil && m[a] {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
