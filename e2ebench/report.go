package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// maxGenLate is the generator lateness (p99) beyond which a paced run is
// invalid: the daemon no longer saw the intended open-loop schedule.
const maxGenLate = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2e is one run's end-to-end measurement, before it is reduced to
// metrics.
type e2e struct {
	setup   []float64
	frames  int // frames turned into estimates in the timed phase
	elapsed float64
	emitLag []float64
	slotLag []float64
	// slotEmits counts the emissions (batches, calls) behind slotLag: the
	// slots of one batch leave together, so the tail percentile needs ten
	// emissions, not ten slots, beyond it.
	slotEmits  int
	sloGood    int
	sloTotal   int
	attempted  int
	failed     int
	heap       heapStats
	distErr    []float64
	cpuSeconds float64
}

// metrics is the result line's end-to-end set. emit_lag_p99_s is printed
// with it but left out: a vCPU preemption on a shared host stalls every
// hop in flight for tens of milliseconds, and a few runs out of ten caught
// in such a stretch move its spread across seeds past any bound the
// result line may set (README.md, Steadiness).
func (e *e2e) metrics() map[string]metric {
	qs := tailQ(e.slotEmits)
	return map[string]metric{
		"setup_s":         {median(e.setup), "s"},
		"frames_per_s":    {float64(e.frames) / e.elapsed, "1/s"},
		"emit_lag_p50_s":  {quantile(e.emitLag, 0.5), "s"},
		"slot_lag_p99_s":  {quantile(e.slotLag, qs), "s"},
		"slo_good_frac":   {float64(e.sloGood) / math.Max(1, float64(e.sloTotal)), "frac"},
		"heap_live_bytes": {float64(e.heap.live), "B"},
	}
}

// printE2E writes the human-readable end-to-end table.
func printE2E(workload string, e *e2e) {
	m := e.metrics()
	fmt.Printf("%s end-to-end (GOMAXPROCS %d):\n", workload, runtime.GOMAXPROCS(0))
	row := func(name, note string) {
		fmt.Printf("  %-18s %14.6g %-5s %s\n", name, m[name].Value, m[name].Unit, note)
	}
	if len(e.setup) > 0 {
		row("setup_s", fmt.Sprintf("median of %d cold starts", len(e.setup)))
	}
	row("frames_per_s", fmt.Sprintf("%d frames in %.2f s", e.frames, e.elapsed))
	row("emit_lag_p50_s", fmt.Sprintf("n=%d", len(e.emitLag)))
	qe := tailQ(len(e.emitLag))
	fmt.Printf("  %-18s %14.6g %-5s p%.1f of n=%d (printed, not in the result line)\n", "emit_lag_p99_s",
		quantile(e.emitLag, qe), "s", 100*qe, len(e.emitLag))
	row("slot_lag_p99_s", fmt.Sprintf("p%.1f of n=%d slots in %d emissions", 100*tailQ(e.slotEmits), len(e.slotLag), e.slotEmits))
	row("slo_good_frac", fmt.Sprintf("%d of %d slots within %.1f s", e.sloGood, e.sloTotal, sloLagLE))
	fmt.Printf("  %-18s %14.6g %-5s %d of %d frames attempted\n", "failed_frac",
		float64(e.failed)/math.Max(1, float64(e.attempted)), "frac", e.failed, e.attempted)
	// Printed, not part of the result: it repeats exactly for a seed, but
	// across seeds it moves more than a steady result-line metric may.
	fmt.Printf("  %-18s %14.6g %-5s median of %d sessions/traces\n", "distance_err_pct",
		100*median(e.distErr), "%", len(e.distErr))
	row("heap_live_bytes", "")
	fmt.Printf("  %-18s %14.6g %-5s process CPU over the timed phase, per core\n", "cpu_util_frac",
		e.cpuSeconds/e.elapsed/float64(runtime.GOMAXPROCS(0)), "frac")
}

// fleetE2E reduces a streaming run to its end-to-end measurement.
func fleetE2E(o *streamOutcome) *e2e {
	r := o.run
	e := &e2e{setup: o.setup, heap: r.heap, elapsed: float64(r.tStop-r.tStart) / 1e9, cpuSeconds: o.rt.cpu.Seconds()}
	for _, st := range r.states {
		// Frames sent in the timed phase are the attempts; a frame that
		// never became an estimate failed (after the closing flush that is
		// exactly a dropped frame).
		timed := 0
		for k := warmFrames; k < st.sent; k++ {
			if st.due.load(k) >= r.tStart {
				timed++
			}
		}
		e.attempted += timed
		if miss := st.sent - len(st.ests); miss > 0 {
			e.failed += miss
		}
		emitAt := make([]int64, st.sent)
		for _, b := range st.batches {
			if b.flush {
				continue
			}
			if b.at >= r.tStart && b.at <= r.tStop {
				e.frames += b.n
			}
			if due := st.due.load(b.trig); b.trig < st.sent && due >= r.tStart && due < r.tEnd {
				e.emitLag = append(e.emitLag, float64(b.at-due)/1e9)
			}
			for s := b.first; s < b.first+b.n && s < st.sent; s++ {
				emitAt[s] = b.at
			}
		}
		// A session that lost frames has its slots shifted against the
		// generator's sequence: all of its slots count as misses.
		lost := r.dropped[st.src.id] > 0
		var prevAt int64
		for k := warmFrames; k < st.sent; k++ {
			due := st.due.load(k)
			if due < r.tStart || float64(r.tEnd-due)/1e9 < sloLagLE {
				continue
			}
			e.sloTotal++
			if lost || emitAt[k] == 0 {
				continue
			}
			lag := float64(emitAt[k]-due) / 1e9
			e.slotLag = append(e.slotLag, lag)
			if emitAt[k] != prevAt {
				e.slotEmits++
				prevAt = emitAt[k]
			}
			if lag <= sloLagLE {
				e.sloGood++
			}
		}
	}
	return e
}

// batchE2E reduces a batch-replay run: each call's trace is due when the
// call is issued and all its slots are emitted when it returns.
func batchE2E(in *inputs, setup []float64, o *batchOutcome) *e2e {
	e := &e2e{setup: setup, heap: o.heap, cpuSeconds: o.rt.cpu.Seconds()}
	var last int64
	for _, c := range o.calls {
		n := in.sources[c.trace].tmpl.slots()
		e.attempted += n
		if c.err != nil {
			e.failed += n
			continue
		}
		e.frames += n
		lag := float64(c.end-c.due) / 1e9
		e.emitLag = append(e.emitLag, lag)
		for s := 0; s < n; s++ {
			e.slotLag = append(e.slotLag, lag)
		}
		e.slotEmits++
		e.sloTotal += n
		if lag <= sloLagLE {
			e.sloGood += n
		}
		last = c.end
	}
	e.elapsed = float64(last-o.tStart) / 1e9
	return e
}

// run executes one benchmark invocation.
func run(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	in, err := makeInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	if workload == "batch-replay" {
		return runBatchWorkload(in, seed, seconds, traced)
	}
	return runStreamWorkload(workload, in, seconds, traced)
}

func runStreamWorkload(workload string, in *inputs, seconds float64, traced bool) (*result, error) {
	setups, untracedSecs := 9, seconds
	if traced {
		setups, untracedSecs = 1, seconds/2
	}
	u, err := runStreaming(workload, in, untracedSecs, false, setups)
	if err != nil {
		return nil, err
	}
	ue := fleetE2E(u)
	checks := []*checkReport{checkFleet(u.run)}
	ue.distErr = checks[0].distErr
	printE2E(workload, ue)
	if err := genValid(workload, u.run.late); err != nil {
		return nil, err
	}
	res := &result{Attempted: ue.attempted, Failed: ue.failed, Metrics: ue.metrics()}
	if traced {
		t, err := runStreaming(workload, in, seconds/2, true, 1)
		if err != nil {
			return nil, err
		}
		checks = append(checks, checkFleet(t.run))
		if err := genValid(workload, t.run.late); err != nil {
			return nil, err
		}
		te := fleetE2E(t)
		st := t.run.states[0]
		l, err := replayLedger(st.src, min(st.pushed, maxLedgerFrames), st.ests)
		if err != nil {
			return nil, err
		}
		res.Metrics = streamLayers(t, te, ue, l)
		checks = append(checks, checkLedger(res.Metrics, l))
		res.Attempted += te.attempted
		res.Failed += te.failed
		if err := writeTrace(workload, t.run); err != nil {
			return nil, err
		}
	}
	return finish(res, checks)
}

func runBatchWorkload(in *inputs, seed int64, seconds float64, traced bool) (*result, error) {
	var setup []float64
	var err error
	untracedSecs := seconds
	if traced {
		untracedSecs = seconds / 2
	} else if setup, err = coldBatchSetup(seed, 5); err != nil {
		return nil, err
	}
	refs, err := batchRefs(in)
	if err != nil {
		return nil, err
	}
	u := runBatch(in, refs, untracedSecs, nil)
	ue := batchE2E(in, setup, u)
	checks := []*checkReport{u.check}
	ue.distErr = checks[0].distErr
	printE2E("batch-replay", ue)
	res := &result{Attempted: ue.attempted, Failed: ue.failed, Metrics: ue.metrics()}
	if traced {
		lg := &spanLog{}
		t := runBatch(in, refs, seconds/2, lg)
		checks = append(checks, t.check)
		te := batchE2E(in, nil, t)
		// The streaming layers on the batch workload's data: one session
		// replaying the first trace through the daemon, closed loop.
		side, err := runStreaming("batch-replay", &inputs{sources: in.sources[:1]}, sideSeconds, true, 1)
		if err != nil {
			return nil, err
		}
		checks = append(checks, checkFleet(side.run))
		st := side.run.states[0]
		l, err := replayLedger(st.src, min(st.pushed, maxLedgerFrames), st.ests)
		if err != nil {
			return nil, err
		}
		res.Metrics = batchLayers(t, te, ue, side, l)
		checks = append(checks, checkLedger(res.Metrics, l))
		res.Attempted += te.attempted
		res.Failed += te.failed
		ids := make([]string, len(in.sources))
		for i, s := range in.sources {
			ids[i] = s.id
		}
		if err := writeSpans(tracePath("batch-replay"), ids, []*spanLog{lg}); err != nil {
			return nil, err
		}
	}
	return finish(res, checks)
}

// finish applies the output checks to the result.
func finish(res *result, checks []*checkReport) (*result, error) {
	res.Correct = true
	for _, c := range checks {
		if err := c.err(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: output check failed:", err)
			res.Correct = false
		}
		if c.skipped > 0 {
			fmt.Printf("  %d sessions dropped frames or degraded their hop: checked for contiguity only\n", c.skipped)
		}
	}
	if res.Attempted < 1 {
		// Nothing was attempted: the run measured nothing.
		res.Attempted = 1
		res.Correct = false
	}
	return res, nil
}

// genValid rejects a paced run whose generator fell behind its schedule.
func genValid(workload string, late []int64) error {
	if workload != "paced-fleet" {
		return nil
	}
	l := make([]float64, len(late))
	for i, v := range late {
		l[i] = float64(v) / 1e9
	}
	if p := quantile(l, tailQ(len(l))); p > maxGenLate {
		return fmt.Errorf("run invalid, not slow: the generator itself fell behind (gen.late_p99_s = %.3f s > %.3f s)", p, maxGenLate)
	}
	return nil
}

func tracePath(workload string) string {
	return filepath.Join(".bench_build", "traces", workload+".csv")
}

func writeTrace(workload string, r *fleetRun) error {
	ids := make([]string, len(r.states))
	logs := append(append([]*spanLog(nil), r.genLogs...), r.connLogs...)
	for i, st := range r.states {
		ids[i] = st.src.id
		logs = append(logs, st.log)
	}
	return writeSpans(tracePath(workload), ids, logs)
}

// printLayers writes the human-readable per-layer table.
func printLayers(workload string, m map[string]metric) {
	fmt.Printf("%s per-layer (traced run):\n", workload)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
