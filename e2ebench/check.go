package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"rim/internal/core"
)

// distFrames is the stream prefix (20 s at 100 Hz) whose travelled
// distance is scored against the ground truth.
const distFrames = 2000

// relGate is the relative tolerance DESIGN.md documents for the vector
// kernel; a session's output must match its offline reference within it.
const relGate = 1e-12

func closeRel(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= relGate*math.Max(math.Abs(a), math.Abs(b))
}

// sameEstimate compares two estimates: identical classification and flags,
// numeric fields inside relGate.
func sameEstimate(a, b core.Estimate) bool {
	return a.Kind == b.Kind && a.Moving == b.Moving && a.Degraded == b.Degraded &&
		closeRel(a.T, b.T) && closeRel(a.Speed, b.Speed) && closeRel(a.HeadingBody, b.HeadingBody) &&
		closeRel(a.AngVel, b.AngVel) && closeRel(a.Confidence, b.Confidence)
}

// compareStreams reports the first difference between got and want.
func compareStreams(got, want []core.Estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !sameEstimate(got[i], want[i]) {
			return fmt.Errorf("slot %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// contiguous checks one session's emitted stream: one estimate per slot
// from slot 0, T strictly increasing, no NaN speed.
func contiguous(ests []core.Estimate) error {
	for i, e := range ests {
		if slotOf(e) != i {
			return fmt.Errorf("estimate %d carries slot %d", i, slotOf(e))
		}
		if i > 0 && !(e.T > ests[i-1].T) {
			return fmt.Errorf("T not increasing at estimate %d (%v after %v)", i, e.T, ests[i-1].T)
		}
		if math.IsNaN(e.Speed) {
			return fmt.Errorf("NaN speed at slot %d", i)
		}
	}
	return nil
}

// streamDistance integrates the translation speed of an estimate stream.
func streamDistance(ests []core.Estimate) float64 {
	var d float64
	for _, e := range ests {
		if e.Kind == core.MotionTranslate {
			d += e.Speed / rate
		}
	}
	return d
}

// checkReport is the outcome of the output checks.
type checkReport struct {
	errs []error
	// skipped counts sessions whose frames were dropped or whose hop was
	// stretched by the degrade policy: their output legitimately differs
	// from the fixed-hop reference, so only contiguity is checked.
	skipped int
	// distErr is each session's or trace's |estimated − true| / true
	// distance.
	distErr []float64
}

func (c *checkReport) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

func (c *checkReport) err() error { return errors.Join(c.errs...) }

// checkFleet verifies every session of a streaming run: its stream is
// contiguous and covers every frame it was sent, and it equals a direct
// core.StreamSeries replay of the same frames.
func checkFleet(r *fleetRun) *checkReport {
	c := &checkReport{}
	refs := make([][]core.Estimate, len(r.states))
	refErrs := make([]error, len(r.states))
	var compare []int
	for i, st := range r.states {
		id := st.src.id
		if err := contiguous(st.ests); err != nil {
			c.fail("%s: %v", id, err)
			continue
		}
		if r.traced {
			// The wrapper saw which push produced each batch; the untraced
			// run infers it from the guard region. Both must agree.
			for _, b := range st.batches {
				if !b.flush && b.first+b.n-1+guardSlots != b.trig {
					c.fail("%s: batch ending at slot %d came from frame %d, not slot+guard", id, b.first+b.n-1, b.trig)
					break
				}
			}
		}
		if r.dropped[id] > 0 || r.degradeFlips[id] > 0 {
			c.skipped++
			continue
		}
		if len(st.ests) != st.sent {
			c.fail("%s: %d estimates for %d frames sent", id, len(st.ests), st.sent)
			continue
		}
		compare = append(compare, i)
		// A fixed prefix keeps the figure independent of how many frames a
		// closed loop managed to push.
		ests := st.ests[:min(len(st.ests), distFrames)]
		if t := st.src.truth(len(ests)); t > 0 {
			c.distErr = append(c.distErr, math.Abs(streamDistance(ests)-t)/t)
		}
	}
	if c.skipped*4 > len(r.states) {
		c.fail("%d of %d sessions dropped frames or degraded their hop; too few left to check", c.skipped, len(r.states))
	}
	parallelFor(len(compare), func(j int) {
		i := compare[j]
		st := r.states[i]
		cfg := streamTemplate()
		arr, err := arrayForAnts(st.src.tmpl.series.NumAnts)
		if err != nil {
			refErrs[i] = err
			return
		}
		cfg.Core.Array = arr
		refs[i], refErrs[i] = core.StreamSeries(st.src.series(st.sent), cfg)
	})
	for _, i := range compare {
		id := r.states[i].src.id
		if refErrs[i] != nil {
			c.fail("%s: reference replay: %v", id, refErrs[i])
			continue
		}
		if err := compareStreams(r.states[i].ests, refs[i]); err != nil {
			c.fail("%s: differs from its StreamSeries reference: %v", id, err)
		}
	}
	return c
}

// batchCall checks one ProcessSeries result against the serial
// reference of its trace; first records the trace's distance error.
func (c *checkReport) batchCall(src *source, res, ref *core.Result, first bool) {
	if err := contiguous(res.Estimates); err != nil {
		c.fail("%s: %v", src.id, err)
	}
	if err := compareStreams(res.Estimates, ref.Estimates); err != nil {
		c.fail("%s: differs from the serial reference: %v", src.id, err)
	}
	if !closeRel(res.Distance, ref.Distance) {
		c.fail("%s: distance %v, serial reference %v", src.id, res.Distance, ref.Distance)
	}
	if first {
		t := src.truth(src.tmpl.slots())
		c.distErr = append(c.distErr, math.Abs(res.Distance-t)/t)
	}
}

// parallelFor runs fn(0..n-1) on one worker per core (gomaxprocs).
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < gomaxprocs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQ is the highest percentile, at most p99, that has at least ten
// samples beyond it.
func tailQ(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
