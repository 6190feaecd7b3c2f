// Command perfbench is the repository benchmark. It drives one of four
// named workloads against the TRAPP engine for a fixed window, checks
// every answer it can against the sources' master values, and prints a
// report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones, taken from windows in which the
// benchmark's wrappers time every call they make into a layer,
// interleaved with untraced windows so the tracing overhead is reported
// too. The program under test gains no options or tracing: every
// measurement is taken from outside, through its public calls.
//
// Build and run from the root of a checkout with
//
//	bash perfbench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads, every metric, and
// which end-to-end metric each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch data and span dumps")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violations:", rep.failed)
		for _, v := range rep.violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
}
