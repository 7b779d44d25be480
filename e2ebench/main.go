// Command e2ebench is RIM's end-to-end benchmark. It runs an in-process
// copy of rimserved (default flags plus -fusion eskf) or the offline
// batch pipeline on inputs generated from a seed, checks every output
// against an offline reference, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer cost ledger — ending with one JSON line.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload paced-fleet|saturate-walk|batch-replay \
//	    --seed N --seconds S --trace 0|1
//
// Workloads, metrics and the layer → end-to-end mapping are described in
// e2ebench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// gomaxprocs is the core count every workload is sized for and runs
// with, whatever the host has: the paced fleet's load share, the closed
// loop's two sessions per core and the check workers all assume it.
const gomaxprocs = 2

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	workload := flag.String("workload", "", "paced-fleet, saturate-walk or batch-replay")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same frames")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = per-layer run: an untraced and a traced half, plus the ledger replay")
	coldBatch := flag.Bool("cold-batch", false, "internal: time one cold ProcessSeries call and print its seconds")
	flag.Parse()

	if *coldBatch {
		if err := coldBatchChild(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("e2ebench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))
	res, err := run(*workload, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
