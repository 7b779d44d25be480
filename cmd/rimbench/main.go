// Command rimbench regenerates the paper's evaluation: it runs every
// figure's experiment (plus the ablations) and prints a paper-vs-measured
// report for each. With -scale=full it uses the paper's parameters
// (200 Hz, 114 tones, long traces); the default fast scale finishes in
// under a minute on a laptop core.
//
// Usage:
//
//	rimbench [-scale fast|full] [-only Fig11,Fig17] [-o EXPERIMENTS.out]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rim/internal/experiments"
)

type runner struct {
	name string
	run  func(experiments.Scale) *experiments.Report
}

// allRunners lists every experiment.
func allRunners() []runner {
	return []runner{
		{"Fig4", func(s experiments.Scale) *experiments.Report { return experiments.Fig4(s).Report }},
		{"Fig5", func(s experiments.Scale) *experiments.Report { return experiments.Fig5(s).Report }},
		{"Fig6", func(s experiments.Scale) *experiments.Report { return experiments.Fig6(s).Report }},
		{"Fig7", func(s experiments.Scale) *experiments.Report { return experiments.Fig7(s).Report }},
		{"Fig8", func(s experiments.Scale) *experiments.Report { return experiments.Fig8(s).Report }},
		{"Fig11", func(s experiments.Scale) *experiments.Report { return experiments.Fig11(s).Report }},
		{"Fig12", func(s experiments.Scale) *experiments.Report { return experiments.Fig12(s).Report }},
		{"Fig13", func(s experiments.Scale) *experiments.Report { return experiments.Fig13(s).Report }},
		{"Fig14", func(s experiments.Scale) *experiments.Report { return experiments.Fig14(s).Report }},
		{"Fig15", func(s experiments.Scale) *experiments.Report { return experiments.Fig15(s).Report }},
		{"Fig16", func(s experiments.Scale) *experiments.Report { return experiments.Fig16(s).Report }},
		{"Fig17", func(s experiments.Scale) *experiments.Report { return experiments.Fig17(s).Report }},
		{"Dyn", func(s experiments.Scale) *experiments.Report { return experiments.Dyn(s).Report }},
		{"Fig18", func(s experiments.Scale) *experiments.Report { return experiments.Fig18(s).Report }},
		{"Fig19", func(s experiments.Scale) *experiments.Report { return experiments.Fig19(s).Report }},
		{"Fig20", func(s experiments.Scale) *experiments.Report { return experiments.Fig20(s).Report }},
		{"Fig21", func(s experiments.Scale) *experiments.Report { return experiments.Fig21(s).Report }},
		{"AblA", func(s experiments.Scale) *experiments.Report { return experiments.AblationSanitize(s).Report }},
		{"AblB", func(s experiments.Scale) *experiments.Report { return experiments.AblationDP(s).Report }},
		{"AblC", func(s experiments.Scale) *experiments.Report { return experiments.AblationPairAvg(s).Report }},
		{"AblD", func(s experiments.Scale) *experiments.Report { return experiments.AblationAmplitude(s).Report }},
		{"ExtA", func(s experiments.Scale) *experiments.Report { return experiments.ExtWiBall(s).Report }},
		{"ExtB", func(s experiments.Scale) *experiments.Report { return experiments.ExtHeading(s).Report }},
	}
}

func main() {
	scaleFlag := flag.String("scale", "fast", "experiment scale: fast or full")
	only := flag.String("only", "", "comma-separated experiment names (e.g. Fig11,Fig17); empty = all")
	out := flag.String("o", "", "also write the reports to this file")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "fast":
		scale = experiments.Fast
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "rimbench: unknown scale %q (want fast or full)\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rimbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "RIM evaluation reproduction — scale=%s — %s\n\n",
		*scaleFlag, time.Now().Format(time.RFC3339))
	start := time.Now()
	for _, r := range allRunners() {
		if len(want) > 0 && !want[r.name] {
			continue
		}
		t0 := time.Now()
		rep := r.run(scale)
		fmt.Fprintf(w, "%s\n(experiment %s took %v)\n\n", rep, r.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "total: %v\n", time.Since(start).Round(time.Millisecond))
}
