package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runs"
)

// TestMain lets the test binary stand in for perfbench when bench.run
// re-executes itself as a -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeScale keeps every workload at a few seconds.
const smokeScale = 0.001

// buildScfpipe builds cmd/scfpipe from the module under test.
func buildScfpipe(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "scfpipe"), "repro/cmd/scfpipe")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build scfpipe: %v\n%s", err, out)
	}
	return dir
}

// TestWorkloadsPrintEveryMetric runs every workload at a tiny scale,
// untraced and traced, and checks the report names every metric with its
// unit and ends with the JSON result.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	bin := buildScfpipe(t)
	for _, name := range []string{"golden", "usage", "chaos-full"} {
		for _, traced := range []bool{false, true} {
			b := &bench{w: workloads[name].withScale(smokeScale), seed: 1, seconds: 0.001, binDir: bin, workDir: t.TempDir()}
			res, err := b.run(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			res.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", name, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Fatalf("%s traced=%v: %+v\n%s", name, traced, got, buf.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in JSON, want %d", name, traced, len(got.Metrics), len(want))
			}
			for _, m := range append(want, metricDef{"run_failure_ratio", "ratio"}) {
				if !bytes.Contains(buf.Bytes(), []byte(m.name+" ")) || !strings.Contains(buf.String(), " "+m.unit+"\n") {
					t.Errorf("%s: %s (%s) not printed", name, m.name, m.unit)
				}
				if v, ok := got.Metrics[m.name]; m.name != "run_failure_ratio" && (!ok || v.Unit != m.unit) {
					t.Errorf("%s: JSON metric %s = %+v, want unit %s", name, m.name, v, m.unit)
				}
			}
		}
	}
}

// TestTracedPipelineMatchesCore checks the traced pipeline's archive
// against core.RunContext's for the same configuration.
func TestTracedPipelineMatchesCore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for name, p := range map[string]pipelineConfig{
		"c2-observed": {scale: smokeScale, workers: 2, chaos: "none", profile: true,
			timelineInterval: 250e6, resourceInterval: 100e6},
		"chaos": {scale: smokeScale, workers: 2, chaos: "heavy", skipC2: true},
	} {
		t.Run(name, func(t *testing.T) {
			chaos, err := fault.ParseProfile(p.chaos)
			if err != nil {
				t.Fatal(err)
			}
			coreDir := t.TempDir()
			events := obs.NewEventLog()
			res, err := core.RunContext(obs.ContextWithEventLog(context.Background(), events), core.Config{
				Seed: 1, Scale: p.scale, Workers: p.workers, Chaos: chaos, SkipC2Scan: p.skipC2,
				Profile: p.profile, TimelineInterval: p.timelineInterval, ResourceInterval: p.resourceInterval,
				CheckpointDir: coreDir, CheckpointInterval: pipelineCkptEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			dir, err := runs.Write(coreDir, res.BuildArchive("scfpipe", events))
			if err != nil {
				t.Fatal(err)
			}
			want, err := readArchive(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedPipeline(p, 1, t.TempDir(), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if diffs := compare(got, want.Fingerprints, want.Counts, "core run"); len(diffs) > 0 {
				t.Fatalf("traced run differs from core.RunContext: %v", diffs)
			}
		})
	}
}

// TestWrongReferenceFails checks that a run whose output differs from the
// pinned reference counts as failed and names the artifact.
func TestWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the usage study")
	}
	b := &bench{w: workloads["usage"].withScale(smokeScale), seed: 1, seconds: 0.001, workDir: t.TempDir(),
		ref: &reference{Seed: 1, Fingerprints: map[string]string{"table2.txt": "not-the-fingerprint"}}}
	_, err := b.run(false)
	if err == nil || !strings.Contains(err.Error(), "table2.txt differs from the reference") {
		t.Fatalf("run with a wrong reference: err = %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and the
// code's in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s unknown to perfbench", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), perfbench %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
