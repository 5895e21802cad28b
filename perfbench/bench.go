package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/runs"
)

// benchWorkload is one benchmark workload. Pipeline workloads run scfpipe
// with fixed inputs (seed 1, as their configurations are defined); usage
// runs the offline study in a child process, on substrate seeds derived
// from --seed (see runSeed).
type benchWorkload struct {
	name     string
	pipeline *pipelineConfig
	scale    float64 // usage only; pipeline workloads carry theirs
}

// withScale returns the workload at another scale, for smoke tests; the
// pinned references then no longer apply.
func (w *benchWorkload) withScale(scale float64) *benchWorkload {
	c := *w
	if c.pipeline != nil {
		p := *c.pipeline
		p.scale = scale
		c.pipeline = &p
	} else {
		c.scale = scale
	}
	return &c
}

func (w *benchWorkload) scaleOf() float64 {
	if w.pipeline != nil {
		return w.pipeline.scale
	}
	return w.scale
}

var workloads = map[string]*benchWorkload{
	"golden": {name: "golden", pipeline: &pipelineConfig{
		scale: 0.01, workers: 4, chaos: "none", skipC2: true,
	}},
	"usage": {name: "usage", scale: 0.2},
	"chaos-full": {name: "chaos-full", pipeline: &pipelineConfig{
		scale: 0.004, workers: 2, chaos: "heavy", profile: true,
		timelineInterval: 250 * time.Millisecond, resourceInterval: 100 * time.Millisecond,
	}},
}

// pipelineSeed is the substrate seed of the pipeline workloads. Their wall
// time depends on the seed far more than on any code change (see BENCH.md),
// so it is part of their definition, not of --seed.
const pipelineSeed = 1

// runReport is what one run produced: its outputs (fingerprints and
// deterministic counts) and, for in-process runs, its own timings.
type runReport struct {
	WallS        float64            `json:"wall_s,omitempty"`
	SetupS       float64            `json:"setup_s,omitempty"`
	Fingerprints map[string]string  `json:"fingerprints"`
	Counts       map[string]int64   `json:"counts"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// outcome is one untraced run as the parent saw it.
type outcome struct {
	seed                    int64
	wall, cpu, rssMB, setup float64
	rep                     *runReport
	err                     error
}

// reference is a workload's pinned expected output for one seed.
type reference struct {
	Seed         int64             `json:"seed"`
	Fingerprints map[string]string `json:"fingerprints"`
	Counts       map[string]int64  `json:"counts"`
}

type bench struct {
	w               *benchWorkload
	seed            int64
	seconds         float64
	binDir, workDir string
	ref             *reference
}

// goldenSummary is the committed golden archive whose run ID and
// deterministic fingerprints the golden workload must reproduce.
const goldenSummary = "internal/runs/testdata/golden/summary.json"

// loadRefs reads the workload's pinned reference. The golden fingerprints
// come from the committed golden archive; counts and the other workloads'
// fingerprints from refs.json.
func (b *bench) loadRefs(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	var all map[string]*reference
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("references %s: %w", path, err)
	}
	ref := all[b.w.name]
	if ref == nil {
		return fmt.Errorf("references %s: no entry for %s", path, b.w.name)
	}
	if b.w.name == "golden" {
		var s runs.Summary
		data, err := os.ReadFile(goldenSummary)
		if err != nil {
			return fmt.Errorf("golden reference: %w", err)
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("golden reference %s: %w", goldenSummary, err)
		}
		ref.Fingerprints = map[string]string{"run_id": s.ID, "calibration": hashJSON(s.Calibration)}
		for name := range runs.DeterministicArtifacts {
			ref.Fingerprints[name] = s.Artifacts[name]
		}
	}
	b.ref = ref
	return nil
}

// usageSeedsPerRun is how many substrate seeds one usage invocation
// cycles through: the population's size and shape move the study's cost by
// up to ~10% from seed to seed, and the median over three seeds' runs keeps
// one population from deciding the result.
const usageSeedsPerRun = 3

// runSeed is the substrate seed of the i-th run (0-based; the traced run
// uses run 0's). Input seed S gives usage the substrate seeds
// 3(S-1)+1 .. 3(S-1)+3, so seed 1 covers the pinned substrate seed 1.
func (b *bench) runSeed(i int) int64 {
	if b.w.pipeline != nil {
		return pipelineSeed
	}
	return (b.seed-1)*usageSeedsPerRun + 1 + int64(i%usageSeedsPerRun)
}

// result is one benchmark invocation's report.
type result struct {
	workload          string
	attempted, failed int
	problems          []string
	endToEnd          map[string]float64
	layers            map[string]float64
	firsts            map[int64]*runReport // first good run per substrate seed
	timed             []outcome
	traced            int
}

// run times untraced runs until the time budget is spent, checks each, and
// with traced adds one traced run.
func (b *bench) run(traced bool) (*result, error) {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{workload: b.w.name, firsts: map[int64]*runReport{}}
	start := time.Now()
	for i := 0; ; i++ {
		seed := b.runSeed(i)
		o := b.runOnce(seed)
		res.attempted++
		if o.err == nil {
			o.err = b.check(o.rep, res.firsts[seed], seed, "run "+strconv.Itoa(i+1))
		}
		if o.err != nil {
			res.failed++
			res.problems = append(res.problems, o.err.Error())
		} else {
			if res.firsts[seed] == nil {
				res.firsts[seed] = o.rep
			}
			res.timed = append(res.timed, o)
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(i+1) > b.seconds {
			break
		}
	}
	good := res.timed
	if len(good) == 0 {
		return nil, fmt.Errorf("%s: every run failed: %s", b.w.name, strings.Join(res.problems, "; "))
	}
	res.endToEnd = map[string]float64{
		"wall_s":      median(good, func(o outcome) float64 { return o.wall }),
		"cpu_s":       median(good, func(o outcome) float64 { return o.cpu }),
		"peak_rss_mb": median(good, func(o outcome) float64 { return o.rssMB }),
		"setup_s":     median(good, func(o outcome) float64 { return o.setup }),
	}
	if !traced {
		return res, nil
	}
	res.layers = map[string]float64{}
	res.attempted++
	seed := b.runSeed(0)
	rep, err := b.runChildProcess("trace", seed, &outcome{})
	if err == nil {
		err = b.check(rep, res.firsts[seed], seed, "traced run")
	}
	if err != nil {
		res.failed++
		res.problems = append(res.problems, err.Error())
		return res, nil
	}
	res.traced = 1
	res.layers = rep.Layers
	res.layers["trace.overhead_s"] = rep.Layers["trace.wall_s"] - res.endToEnd["wall_s"]
	return res, nil
}

// runOnce performs one untraced run in a fresh process and temp run dir.
func (b *bench) runOnce(seed int64) outcome {
	o := outcome{seed: seed}
	if b.w.pipeline == nil {
		o.rep, o.err = b.runChildProcess("usage", seed, &o)
		if o.err == nil {
			o.wall, o.setup = o.rep.WallS, o.rep.SetupS
		}
		return o
	}
	dir, err := os.MkdirTemp(b.workDir, b.w.name+"-")
	if err != nil {
		o.err = err
		return o
	}
	defer os.RemoveAll(dir)
	runDir := filepath.Join(dir, "runs")
	cmd := exec.Command(filepath.Join(b.binDir, "scfpipe"), b.w.pipeline.args(seed, runDir)...)
	start := time.Now()
	stderr, err := runCmd(cmd, dir, io.Discard, &o)
	o.wall = time.Since(start).Seconds()
	if err != nil {
		o.err = fmt.Errorf("%s: scfpipe: %v: %s", b.w.name, err, lastLine(stderr))
		return o
	}
	archive, err := onlyRunDir(runDir)
	if err == nil {
		o.rep, err = readArchive(archive)
	}
	if err != nil {
		o.err = fmt.Errorf("%s: %v", b.w.name, err)
		return o
	}
	o.setup = o.rep.SetupS
	return o
}

// runChildProcess runs this binary as a child doing one usage or traced run
// in a fresh temp run dir, decodes its report, and records the child's CPU
// time and peak RSS into o.
func (b *bench) runChildProcess(kind string, seed int64, o *outcome) (*runReport, error) {
	dir, err := os.MkdirTemp(b.workDir, b.w.name+"-"+kind+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", b.w.name,
		"-seed", strconv.FormatInt(seed, 10), "-scale", fmt.Sprint(b.w.scaleOf()),
		"-rundir", filepath.Join(dir, "runs"))
	var stdout bytes.Buffer
	stderr, err := runCmd(cmd, dir, &stdout, o)
	if err != nil {
		return nil, fmt.Errorf("%s %s run: %v: %s", b.w.name, kind, err, lastLine(stderr))
	}
	var rep runReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s %s run: report: %v", b.w.name, kind, err)
	}
	return &rep, nil
}

// runCmd runs cmd in dir with the SCF_* environment stripped (so no
// ambient chaos profile or run dir leaks in), and records the child's CPU
// time and peak RSS into o.
func runCmd(cmd *exec.Cmd, dir string, stdout io.Writer, o *outcome) (string, error) {
	var stderr bytes.Buffer
	cmd.Dir = dir
	cmd.Stdout = stdout
	cmd.Stderr = &stderr
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "SCF_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	err := cmd.Run()
	if cmd.ProcessState == nil {
		return stderr.String(), err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		o.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return stderr.String(), err
}

// runChild is the child side: one usage run (untraced) or one traced run.
func runChild(w *benchWorkload, kind string, seed int64, runDir string) (*runReport, error) {
	if runDir == "" {
		return nil, fmt.Errorf("-rundir is required")
	}
	var tr *tracer
	switch kind {
	case "usage":
	case "trace":
		tr = newTracer()
	default:
		return nil, fmt.Errorf("unknown -child %q", kind)
	}
	var rep *runReport
	var err error
	if w.pipeline != nil {
		if tr == nil {
			return nil, fmt.Errorf("pipeline workloads run untraced through scfpipe")
		}
		rep, err = tracedPipeline(*w.pipeline, seed, runDir, tr)
	} else {
		rep, err = runUsage(w.scale, seed, runDir, tr)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		fillLayers(rep.Layers, tr)
		// The span file outlives the temp run dir, for inspection.
		if err := tr.writeFile(filepath.Join(filepath.Dir(filepath.Dir(runDir)), "spans-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// fillLayers completes the per-layer map: layers a workload does not
// exercise report 0, and the trace's own metrics are added.
func fillLayers(layers map[string]float64, tr *tracer) {
	if _, ok := layers["trace.wall_s"]; !ok {
		layers["trace.wall_s"] = tr.since()
		layers["trace.coverage"] = ratio(tr.topLevel(), layers["trace.wall_s"])
	}
	layers["proc.goroutines_max"] = float64(tr.goroutMax)
	for _, m := range perLayer {
		if _, ok := layers[m.name]; !ok {
			layers[m.name] = 0
		}
	}
}

// onlyRunDir returns the single archive directory scfpipe wrote.
func onlyRunDir(root string) (string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return "", fmt.Errorf("run archive: %w", err)
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "r-") {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) != 1 {
		return "", fmt.Errorf("run archive: want one run under %s, found %d", root, len(dirs))
	}
	return filepath.Join(root, dirs[0]), nil
}

// readArchive extracts a run archive's outputs: run ID, artifact
// fingerprints, hashes of the calibration and degradation records, the
// deterministic counts, and the substrate stage's wall time.
func readArchive(dir string) (*runReport, error) {
	rec, err := runs.Read(dir)
	if err != nil {
		return nil, err
	}
	var man obs.Manifest
	data, err := os.ReadFile(filepath.Join(dir, runs.ManifestFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	rep := &runReport{
		Fingerprints: map[string]string{
			"run_id":       rec.Summary.ID,
			"calibration":  hashJSON(rec.Summary.Calibration),
			"degradations": hashJSON(rec.Summary.Degradations),
		},
		Counts: map[string]int64{},
	}
	for name, fp := range rec.Summary.Artifacts {
		rep.Fingerprints[name] = fp
	}
	c := rec.Timings.Metrics.Counters
	for key, metric := range map[string]string{
		"records":           "pdns_records_scanned_total",
		"dropped":           "pdns_records_dropped_total",
		"timeouts":          "probe_timeouts_total",
		"requests":          "probe_requests_total",
		"conn_retries":      "probe_conn_retries_total",
		"c2_detections":     "c2_detections_total",
		"checkpoint_writes": "checkpoint_write_total",
	} {
		rep.Counts[key] = c[metric]
	}
	for _, st := range man.Stages {
		if st.Name != "probe" {
			continue
		}
		for _, a := range st.Attrs {
			if a.Key == "targets" || a.Key == "reachable" {
				n, _ := strconv.ParseInt(fmt.Sprint(a.Value), 10, 64)
				rep.Counts[a.Key] = n
			}
		}
	}
	if st := rec.Timings.Stage("substrate"); st != nil {
		rep.SetupS = float64(st.WallNS) / 1e9
	}
	return rep, nil
}

// check compares a run's outputs with the first good run of the same
// substrate seed in this invocation and, for the reference's seed, with the
// pinned reference. The error names every artifact or count that differed.
//
// Runs are not compared with each other on checkpoint_writes: when a
// population's row count sits near a multiple of the 250k checkpoint
// interval, whether the last emission snapshot fires depends on where the
// shared row counter stood when the previous one fired, which is
// scheduling. The pinned references, whose row counts sit far from a
// multiple, do check it.
func (b *bench) check(rep, first *runReport, seed int64, what string) error {
	var diffs []string
	if first != nil {
		counts := make(map[string]int64, len(first.Counts))
		for k, v := range first.Counts {
			if k != "checkpoint_writes" {
				counts[k] = v
			}
		}
		diffs = append(diffs, compare(rep, first.Fingerprints, counts, "first run")...)
	}
	if b.ref != nil && b.ref.Seed == seed {
		diffs = append(diffs, compare(rep, b.ref.Fingerprints, b.ref.Counts, "reference")...)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s %s (seed %d): %s", b.w.name, what, seed, strings.Join(diffs, "; "))
	}
	return nil
}

func compare(rep *runReport, fps map[string]string, counts map[string]int64, against string) []string {
	var diffs []string
	for _, name := range sortedKeys(fps) {
		if got := rep.Fingerprints[name]; got != fps[name] {
			diffs = append(diffs, fmt.Sprintf("%s differs from the %s (%.12s, want %.12s)", name, against, got, fps[name]))
		}
	}
	for _, name := range sortedKeys(counts) {
		if got, ok := rep.Counts[name]; !ok || got != counts[name] {
			diffs = append(diffs, fmt.Sprintf("count %s = %d differs from the %s (%d)", name, got, against, counts[name]))
		}
	}
	return diffs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hashJSON(v any) string {
	b, _ := json.Marshal(v)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func median(os []outcome, f func(outcome) float64) float64 {
	vs := make([]float64, len(os))
	for i, o := range os {
		vs[i] = f(o)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
