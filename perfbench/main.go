// Command perfbench is the repository benchmark: it runs one of three fixed
// SMP-Shasta workloads closed-loop for a fixed host-time budget through the
// public API, verifies every run against the sequential reference and the
// expected virtual cycles, and prints host (setup, run, analysis, memory) and
// virtual (cycles, messages) end-to-end metrics, the host times scaled to a
// reference host speed by a calibration taken before each iteration
// (calib.go). With -trace 1 it adds a separate traced pass that produces
// the per-layer ledger: a per-module CPU profile share table, warmed probes
// of the sim, protocol and obsv layers, and the run's protocol and
// interconnect counters.
//
// Usage:
//
//	perfbench -workload lu16|water64|observe16 [-seed N] [-seconds S] [-trace 0|1] [-workdir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The application inputs are fixed
// by the paper's kernels at scale 1, so the seed never changes what is
// simulated: it shuffles the order of the steps in a run (where the extra
// setup-only repetitions fall among the iterations, and the order of the
// layer probes), so that repeated runs sample different orderings and host
// conditions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the order of steps within the run")
	seconds := flag.Float64("seconds", 10, "host seconds of closed-loop iterations to measure")
	trace := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for trace files and the span log")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; usage: perfbench -workload %s [-seed N] [-seconds S] [-trace 0|1] [-workdir DIR]\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// One P: on a 2-vCPU virtual machine the parallel scheduler at
	// GOMAXPROCS 2 measured 16% slower and 1.6 times as spread from run to
	// run, because each window hand-off between OS threads waits for a
	// cross-vCPU wake-up. With one P the scheduler's windows, domains and
	// merges still run; only the OS-thread concurrency is gone.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s: %s\nseed %d, seconds %g, trace %d, GOMAXPROCS %d, NumCPU %d, %s\n",
		w.name, w.describe(), *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	res, err := runBenchmark(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
