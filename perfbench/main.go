// Command perfbench measures the measurement pipeline end to end and layer
// by layer on three workloads (golden, usage, chaos-full; see BENCH.md).
//
// Usage, from the repository root (run.sh builds scfpipe and this program
// first, then execs it):
//
//	bash perfbench/run.sh --workload golden --seed 1 --seconds 35 --trace 0
//
// Each untraced run is a fresh process with a fresh temp run dir, repeated
// until --seconds is used up; its outputs are checked against the pinned
// references. With --trace 1 one traced run follows, which repeats the same
// work through the modules' public functions and reports per-layer spans.
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: golden, usage or chaos-full")
		seed    = flag.Int64("seed", 1, "input seed (see BENCH.md for what it selects per workload)")
		seconds = flag.Float64("seconds", 10, "how long the untraced runs may take in total")
		traced  = flag.Int("trace", 0, "1 adds one traced run and reports per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the scfpipe binary")
		workDir = flag.String("work", ".bench_build/tmp", "parent of the temp run dirs")
		refs    = flag.String("refs", "perfbench/refs.json", "pinned reference outputs")
		scale   = flag.Float64("scale", 0, "override the workload's scale (smoke runs; references then do not apply)")
		child   = flag.String("child", "", "internal: run one usage or traced run in this process")
		runDir  = flag.String("rundir", "", "internal: the child's run dir")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q (want golden, usage or chaos-full)", *name)
	}
	scaled := *scale > 0 && *scale != w.scaleOf()
	if scaled {
		w = w.withScale(*scale)
	}
	if *child != "" {
		rep, err := runChild(w, *child, *seed, *runDir)
		if err != nil {
			fatalf("%s %s run: %v", *name, *child, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatalf("%v", err)
		}
		return
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, binDir: *binDir, workDir: *workDir}
	if !scaled {
		if err := b.loadRefs(*refs); err != nil {
			fatalf("%v", err)
		}
	}
	out, err := b.run(*traced == 1)
	if err != nil {
		fatalf("%v", err)
	}
	out.print(os.Stdout)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
