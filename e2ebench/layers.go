package main

import (
	"math"

	"rim/internal/obs"
)

const (
	// maxLedgerFrames caps the frames the ledger replays: it replays as
	// many of the first session's frames as that session pushed in the
	// traced run, so both see the same hops, ramp-up included, up to this
	// many (a minute of a walk at 100 Hz).
	maxLedgerFrames = 6000
	// sideSeconds is the closed-loop streaming pass that measures the
	// session and core layers on the batch workload's traces.
	sideSeconds = 2.0
)

// programTimers sums the program's own stage histograms and counters.
type programTimers struct {
	hopSum, buildSum, movementSum, alignSum float64
	hops                                    uint64
	rowsFilled, rowsReused, rowsStale       float64
	fallbackHops                            float64
}

func readProgramTimers(reg *obs.Registry) programTimers {
	var p programTimers
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "rim_stream_hop_seconds":
			p.hopSum, p.hops = m.Sum, m.Count
		case "rim_trrs_build_seconds":
			p.buildSum = m.Sum
		case "rim_movement_seconds":
			p.movementSum = m.Sum
		case "rim_align_seconds":
			p.alignSum = m.Sum
		case "rim_trrs_rows_filled_total":
			p.rowsFilled = m.Value
		case "rim_trrs_rows_reused_total":
			p.rowsReused = m.Value
		case "rim_trrs_rows_stale_total":
			p.rowsStale = m.Value
		case "rim_stream_fallback_hops_total":
			p.fallbackHops = m.Value
		}
	}
	return p
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// streamLayerMetrics computes the per-layer rows every workload shares
// from a traced streaming run (the session and core layers), the ledger
// replay (trrs, align, fusion, wire codec) and the program's own timers.
func streamLayerMetrics(t *streamOutcome, l *ledger) map[string]metric {
	r := t.run
	var workerLogs []*spanLog
	var sent, retries, frames, ests, degraded int
	var dropped uint64
	for _, st := range r.states {
		workerLogs = append(workerLogs, st.log)
		sent += st.sent
		retries += st.retries
		frames += st.pushed
		ests += len(st.ests)
		for _, e := range st.ests {
			if e.Degraded {
				degraded++
			}
		}
		dropped += r.dropped[st.src.id]
	}
	ingestLogs := r.genLogs
	if r.paced {
		ingestLogs = r.connLogs
	}
	late := make([]float64, len(r.late))
	for i, v := range r.late {
		late[i] = float64(v) / 1e9
	}
	queue := durations(workerLogs, spanQueue)
	hops := durations(workerLogs, spanHop)
	hopMean := mean(hops)
	prog := readProgramTimers(r.d.reg)
	named := prog.buildSum + prog.movementSum + prog.alignSum
	progHopMean := ratio(prog.hopSum, float64(prog.hops))

	m := map[string]metric{
		"gen.late_p99_s":              {quantile(late, tailQ(len(late))), "s"},
		"wire.read_us_per_frame":      {1e6 * l.wireRead / float64(l.frames), "us"},
		"wire.bytes_per_frame":        {float64(l.wireBytes), "B"},
		"session.ingest_us_per_frame": {1e6 * mean(durations(ingestLogs, spanIngest)), "us"},
		"session.queue_wait_p50_s":    {quantile(queue, 0.5), "s"},
		"session.queue_wait_p99_s":    {quantile(queue, tailQ(len(queue))), "s"},
		"session.retries_per_frame":   {ratio(float64(retries), float64(sent)), "ratio"},
		"session.dropped_frac":        {ratio(float64(dropped), float64(sent)), "frac"},
		"session.record_us_per_hop":   {1e6 * mean(durations(workerLogs, spanRecord)), "us"},
		"core.push_us_per_frame":      {1e6 * mean(durations(workerLogs, spanPush)), "us"},
		"core.hop_mean_s":             {hopMean, "s"},
		"core.hop_p50_s":              {quantile(hops, 0.5), "s"},
		"core.hop_p99_s":              {quantile(hops, tailQ(len(hops))), "s"},
		"core.hops":                   {float64(len(hops)), "count"},
		"core.degraded_frac":          {ratio(float64(degraded), float64(ests)), "frac"},
		"core.fallback_hops":          {prog.fallbackHops, "count"},
		"trrs.append_us_per_frame":    {1e6 * l.appended / float64(l.frames), "us"},
		"trrs.build_s_per_trace":      {l.build, "s"},
		"trrs.rows_filled_per_hop":    {ratio(prog.rowsFilled, float64(prog.hops)), "count"},
		"trrs.rows_reused_frac":       {ratio(prog.rowsReused, prog.rowsReused+prog.rowsStale), "frac"},
		"fusion.step_us":              {1e6 * ratio(l.fusion, float64(l.fusionSteps)), "us"},
		"obs.unnamed_hop_frac":        {1 - ratio(named, prog.hopSum), "frac"},
		"obs.stage_hop_mean_s":        {progHopMean, "s"},
		"obs.stage_vs_wrapper_frac":   {ratio(progHopMean, hopMean) - 1, "frac"},
		"obs.trrs_build_s_per_hop":    {ratio(prog.buildSum, float64(prog.hops)), "s"},
		"obs.movement_s_per_hop":      {ratio(prog.movementSum, float64(prog.hops)), "s"},
		"obs.align_s_per_hop":         {ratio(prog.alignSum, float64(prog.hops)), "s"},
		"obs.scrape_s":                {r.scrape, "s"},
		"trace.events_per_frame":      {ratio(float64(r.d.rec.TotalEmitted()), float64(frames)), "count"},
	}
	if r.paced {
		// Only the paced fleet reads frames off the wire; elsewhere the
		// ledger's codec replay of the same frames stands in.
		m["wire.read_us_per_frame"] = metric{1e6 * mean(durations(r.connLogs, spanWireRead)), "us"}
	}
	for _, row := range ledgerRows(l, hopMean) {
		m[row.name] = metric{row.value, "s"}
	}
	return m
}

// Tolerances of the ledger's cross-check against the program's own stage
// timers and counters. The program times its stages in wall time on a
// fleet of sessions sharing the cores, the ledger one session alone, so
// a stage may read up to ledgerTimeTol times apart; rows filled per hop
// is a count, off only by the fleet's mix of arrays and fallback hops.
const (
	ledgerTimeTol = 2.0
	ledgerRowsTol = 0.25
)

// checkLedger fails when the ledger no longer matches the program it
// claims to split: a negative core.other_s_per_hop (the named rows cost
// more than the hop), a movement row beyond ledgerTimeTol of the
// program's rim_movement_seconds per hop, DP tracking and prominence
// beyond ledgerTimeTol of rim_align_seconds per hop (the stage they run
// in, with reckoning), or a replay that fills a different number of TRRS
// rows per hop than the streamer did (rim_trrs_rows_filled_total; the
// program has no timer on its batched extend, so the count stands in).
func checkLedger(m map[string]metric, l *ledger) *checkReport {
	c := &checkReport{}
	v := func(name string) float64 { return m[name].Value }
	if other := v("core.other_s_per_hop"); other < 0 {
		c.fail("ledger: named rows exceed the core hop mean %.6g s by %.6g s", v("core.hop_mean_s"), -other)
	}
	within := func(name string, got, want float64) {
		if want <= 0 || got <= 0 {
			c.fail("ledger: %s is %.6g s, the program's stage timer %.6g s", name, got, want)
			return
		}
		if r := got / want; r > ledgerTimeTol || r < 1/ledgerTimeTol {
			c.fail("ledger: %s is %.6g s, %.2f× the program's stage timer (%.6g s)", name, got, r, want)
		}
	}
	within("align.movement_s_per_hop", v("align.movement_s_per_hop"), v("obs.movement_s_per_hop"))
	if got, want := v("align.track_s_per_hop")+v("align.prominence_s_per_hop"), v("obs.align_s_per_hop"); got > ledgerTimeTol*want {
		c.fail("ledger: track + prominence %.6g s per hop exceed %.1f× the program's align stage (%.6g s)", got, ledgerTimeTol, want)
	}
	got := ratio(float64(l.rowsFilled), float64(l.hops))
	if want := v("trrs.rows_filled_per_hop"); math.Abs(got-want) > ledgerRowsTol*want {
		c.fail("ledger: replay filled %.1f TRRS rows per hop, the streamer %.1f", got, want)
	}
	return c
}

// runtimeAndOverhead adds the allocation rows (per frame of the timed
// phase) and the tracing overhead: the traced run's CPU per frame against
// the untraced run's.
func runtimeAndOverhead(m map[string]metric, rt runtimeDelta, traced, untraced *e2e) {
	frames := float64(traced.frames)
	m["runtime.allocs_per_frame"] = metric{ratio(float64(rt.mallocs), frames), "count"}
	m["runtime.alloc_bytes_per_frame"] = metric{ratio(float64(rt.bytes), frames), "B"}
	m["runtime.gc_cycles"] = metric{float64(rt.gcs), "count"}
	m["runtime.heap_peak_bytes"] = metric{float64(traced.heap.peakInuse), "B"}
	m["trace_overhead_frac"] = metric{ratio(ratio(traced.cpuSeconds, frames), ratio(untraced.cpuSeconds, float64(untraced.frames))) - 1, "frac"}
}

// streamLayers is the per-layer report of a streaming workload.
func streamLayers(t *streamOutcome, te, ue *e2e, l *ledger) map[string]metric {
	m := streamLayerMetrics(t, l)
	m["gen.frames_sent"] = metric{float64(te.attempted), "count"}
	runtimeAndOverhead(m, t.rt, te, ue)
	printLayers(t.run.workload, m)
	return m
}

// batchLayers is the per-layer report of batch-replay: generator,
// allocation and overhead rows from the batch calls, session and core
// rows from the closed-loop streaming pass over the same traces.
func batchLayers(t *batchOutcome, te, ue *e2e, side *streamOutcome, l *ledger) map[string]metric {
	m := streamLayerMetrics(side, l)
	late := make([]float64, len(t.calls))
	for i, c := range t.calls {
		late[i] = float64(c.start-c.due) / 1e9
	}
	m["gen.late_p99_s"] = metric{quantile(late, tailQ(len(late))), "s"}
	m["gen.frames_sent"] = metric{float64(te.attempted), "count"}
	runtimeAndOverhead(m, t.rt, te, ue)
	printLayers("batch-replay", m)
	return m
}
