package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, printed with
// --trace 0. run_failure_ratio is printed on its own line, not in the JSON
// metrics: it is 0 on a healthy run and the JSON's attempted/failed carry
// it already.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named after modules; BENCH.md
// says which end-to-end metric and workload each one moves.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"faas.edge_start_s", "s"},
	{"pdns.aggregate_s", "s"},
	{"pdns.aggregate_cpu_s", "s"},
	{"pdns.records", "count"},
	{"pdns.dropped", "count"},
	{"pdns.ns_per_record", "ns"},
	{"pdns.alloc_bytes_per_record", "B"},
	{"pdns.allocs_per_record", "count"},
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.write_s", "s"},
	{"checkpoint.stall_share", "ratio"},
	{"probe.sweep_s", "s"},
	{"probe.cpu_s", "s"},
	{"probe.targets", "count"},
	{"probe.requests", "count"},
	{"probe.reachable", "count"},
	{"probe.useful_ratio", "ratio"},
	{"probe.timeouts", "count"},
	{"probe.timeout_wait_s", "s"},
	{"probe.slot_s", "s"},
	{"probe.timeout_share", "ratio"},
	{"probe.request_p50_ms", "ms"},
	{"probe.request_p99_ms", "ms"},
	{"probe.retries", "count"},
	{"probe.breaker_skips", "count"},
	{"probe.alloc_bytes_per_request", "B"},
	{"faas.edge_conns", "count"},
	{"faas.tls_handshakes", "count"},
	{"fault.injected", "count"},
	{"secrets.sanitise_s", "s"},
	{"content.cluster_s", "s"},
	{"content.docs", "count"},
	{"content.clusters", "count"},
	{"abuse.classify_s", "s"},
	{"disclosure.build_s", "s"},
	{"c2.sweep_s", "s"},
	{"c2.cpu_s", "s"},
	{"c2.hosts", "count"},
	{"c2.probes", "count"},
	{"c2.detections", "count"},
	{"c2.ns_per_host", "ns"},
	{"c2.scan_p50_ms", "ms"},
	{"c2.scan_p99_ms", "ms"},
	{"runs.write_s", "s"},
	{"runs.bytes", "B"},
	{"obs.boundary_s", "s"},
	{"obs.stop_s", "s"},
	{"obs.windows", "count"},
	{"obs.profile_bytes", "B"},
	{"proc.goroutines_max", "count"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report, then the JSON result as the last
// line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d timed run(s), %d traced, %d attempted, %d failed\n",
		r.workload, len(r.timed), r.traced, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
	for i, o := range r.timed {
		fmt.Fprintf(w, "run %d (seed %d): wall %.3f s, cpu %.3f s, peak rss %.1f MB, setup %.4f s\n",
			i+1, o.seed, o.wall, o.cpu, o.rssMB, o.setup)
	}
	seeds := make([]int64, 0, len(r.firsts))
	for seed := range r.firsts {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		rep := r.firsts[seed]
		for _, name := range sortedKeys(rep.Fingerprints) {
			fmt.Fprintf(w, "fingerprint %s seed=%d %s %s\n", r.workload, seed, name, rep.Fingerprints[name])
		}
		for _, name := range sortedKeys(rep.Counts) {
			fmt.Fprintf(w, "count %s seed=%d %s %d\n", r.workload, seed, name, rep.Counts[name])
		}
	}
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-32s %14.6f %s\n", m.name, r.endToEnd[m.name], m.unit)
		if r.layers == nil { // end-to-end metrics only without --trace 1
			out.Metrics[m.name] = metricValue{r.endToEnd[m.name], m.unit}
		}
	}
	fmt.Fprintf(w, "%-32s %14.6f %s\n", "run_failure_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	if r.layers != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-32s %14.6f %s\n", m.name, r.layers[m.name], m.unit)
			out.Metrics[m.name] = metricValue{r.layers[m.name], m.unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}
