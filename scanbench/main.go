// Command scanbench is the repository's end-to-end benchmark: it builds a
// workload's fixtures, times whole ScanFirmware runs through the public
// patchecko API, checks the reports, and prints every metric by name and
// unit, ending with one JSON line:
//
//	bash scanbench/run.sh --workload thingos-small --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it makes one traced scan, replays each layer's public calls on
// that scan's inputs under benchmark-owned spans, and reports the per-layer
// metrics. --workload all runs every workload in turn, each printing its
// own metrics and JSON line. It exits non-zero when a correctness check
// fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all to run every workload in turn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "how long the timed scans run")
		trace   = flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory for stores; traced runs write spans to <dir>/spans/<workload>-seed<seed>.json")
	)
	flag.Parse()
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "scanbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "scanbench:", err)
		os.Exit(1)
	}
	code := 0
	for _, w := range selected {
		runDir, err := os.MkdirTemp(*dir, "run-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanbench:", err)
			os.Exit(1)
		}
		code = max(code, run(w, options{seed: *seed, dir: runDir}, *seconds, *trace == 1, *dir))
		if err := os.RemoveAll(runDir); err != nil {
			fmt.Fprintln(os.Stderr, "scanbench:", err)
		}
	}
	os.Exit(code)
}

func run(w workload, o options, seconds float64, traced bool, dir string) int {
	ctx := context.Background()
	var (
		res *result
		err error
	)
	if traced {
		spans := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		res, err = runTraced(ctx, w, o, spans)
	} else {
		res, err = runTimed(ctx, w, o, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanbench:", err)
		return 1
	}
	printResult(w.name, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints one line per metric, then the result as one JSON line.
func printResult(name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.n > 1 && m.q3 != m.q1 {
			fmt.Printf("%-14s %-34s %16.6g %-6s (q1 %.6g, q3 %.6g, n %d)\n", name, n, m.Value, m.Unit, m.q1, m.q3, m.n)
		} else {
			fmt.Printf("%-14s %-34s %16.6g %s\n", name, n, m.Value, m.Unit)
		}
	}
	for _, p := range res.problems {
		fmt.Printf("%-14s FAILED: %s\n", name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanbench:", err)
		return
	}
	fmt.Println(string(line))
}
