package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"rim/internal/core"
)

// batchConfig is rimtrack's pipeline configuration (the rim.Process
// path) at the default Parallelism.
func batchConfig(src *source) core.Config {
	arr, err := arrayForAnts(src.tmpl.series.NumAnts)
	if err != nil {
		panic(err) // the generator only builds canonical arrays
	}
	cfg := core.DefaultConfig(arr)
	cfg.WindowSeconds = windowSeconds
	return cfg
}

// batchCall is one timed ProcessSeries call.
type batchCall struct {
	trace      int
	due, start int64
	end        int64
	err        error
}

type batchOutcome struct {
	calls  []batchCall
	tStart int64
	rt     runtimeDelta
	heap   heapStats
	check  *checkReport
}

// batchRefs runs every trace serially (Parallelism 1), the reference each
// timed call is checked against.
func batchRefs(in *inputs) ([]*core.Result, error) {
	refs := make([]*core.Result, len(in.sources))
	errs := make([]error, len(in.sources))
	parallelFor(len(in.sources), func(i int) {
		cfg := batchConfig(in.sources[i])
		cfg.Parallelism = 1
		refs[i], errs[i] = core.ProcessSeries(in.sources[i].tmpl.series, cfg)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: serial reference: %w", in.sources[i].id, err)
		}
	}
	return refs, nil
}

// runBatch replays the workload's traces through core.ProcessSeries
// back to back until the deadline, checking each result against refs as
// it returns (so no result outlives its call) and recording a core.hop
// span per call into lg (nil in the untraced run).
func runBatch(in *inputs, refs []*core.Result, seconds float64, lg *spanLog) *batchOutcome {
	out := &batchOutcome{check: &checkReport{}}
	cfgs := make([]core.Config, len(in.sources))
	for i, src := range in.sources {
		cfgs[i] = batchConfig(src)
	}
	checked := make([]bool, len(in.sources))
	base := liveHeapAfterGC()
	heap := startHeapSampler()
	rt0 := readRuntime()
	out.tStart = now()
	tEnd := out.tStart + int64(seconds*1e9)
	for i := 0; now() < tEnd; i++ {
		k := i % len(in.sources)
		c := batchCall{trace: k, due: now()}
		c.start = now()
		res, err := core.ProcessSeries(in.sources[k].tmpl.series, cfgs[k])
		c.end, c.err = now(), err
		lg.add(spanHop, k, i, c.start, c.end)
		out.calls = append(out.calls, c)
		if err == nil {
			out.check.batchCall(in.sources[k], res, refs[k], !checked[k])
			checked[k] = true
		}
	}
	out.rt = readRuntime().sub(rt0)
	out.heap = heap.finish(false)
	out.heap.live -= min(out.heap.live, base)
	return out
}

// coldBatchSetup measures the first ProcessSeries call of a cold process,
// n times, each in a fresh child process running this binary.
func coldBatchSetup(seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--cold-batch", "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold batch child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("cold batch child printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// coldBatchChild is the child side of coldBatchSetup: simulate the first
// trace, then time one ProcessSeries call and print its seconds.
func coldBatchChild(seed int64) error {
	in, err := makeInputs("batch-replay", seed)
	if err != nil {
		return err
	}
	src := in.sources[0]
	t0 := time.Now()
	if _, err := core.ProcessSeries(src.tmpl.series, batchConfig(src)); err != nil {
		return err
	}
	fmt.Println(time.Since(t0).Seconds())
	return nil
}
