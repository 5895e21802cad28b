package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/runs"
)

func TestRunDispatchExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"help flag", []string{"-h"}, 0},
		{"subcommand help flag", []string{"gate", "-h"}, 0},
		{"gate nothing to gate", []string{"gate"}, 2},
		{"gate bad err-tol", []string{"gate", "-err-tol", "banana"}, 2},
		{"gate candidate without baseline", []string{"gate", "some-run"}, 2},
		{"show no args", []string{"show"}, 2},
		{"show unknown run", []string{"show", "-dir", t.TempDir(), "r-nope"}, 1},
		{"show short hashes", []string{"show", shortHashArchive(t)}, 0},
		{"diff wrong arity", []string{"diff", "only-one"}, 2},
		{"timeline json with diff before any read", []string{"timeline", "-diff", "-json", "-dir", t.TempDir(), "r-a", "r-b"}, 2},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}

// timelineArchive writes one archive whose timeline.jsonl holds the given
// windows, returning its directory (usable as a run argument directly).
func timelineArchive(t *testing.T, root, id string, ws []timeline.Window) string {
	t.Helper()
	arch := &runs.Archive{
		Summary:  runs.Summary{Tool: "test", Meta: map[string]string{"seed": "1", "id": id}},
		Timings:  runs.Timings{CreatedAt: "2026-01-01T00:00:00Z", ElapsedNS: 1e9},
		Timeline: ws,
	}
	dir := filepath.Join(root, id)
	if err := runs.WriteDir(dir, arch); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunTimelineRenderDeterministic(t *testing.T) {
	root := t.TempDir()
	ws := []timeline.Window{
		{Index: 0, StartUS: 0, EndUS: 250000, Stage: "probe", Stages: []string{"identify", "probe"},
			Counters:  map[string]int64{"pdns_records_total": 120, "probe_requests_total": 40},
			Hists:     map[string]timeline.HistWindow{"probe_request_seconds": {Count: 40, P50: 0.01, P90: 0.04, P99: 0.09}},
			Resources: &obs.ResourcePeaks{HeapInuseBytes: 3 << 20, Goroutines: 12}},
		{Index: 1, StartUS: 250000, EndUS: 500000, Stage: "probe", Stages: []string{"probe"},
			Counters:  map[string]int64{"probe_requests_total": 55},
			Anomalies: []timeline.Anomaly{{Series: "fault_resets_injected_total", Kind: "activation", Value: 6}},
			Breaches:  []timeline.Breach{{Rule: "probe_error_rate", Group: "aws", Value: 0.41, Max: 0.25}}},
	}
	dir := timelineArchive(t, root, "r-timeline-test", ws)

	// Acceptance criterion: five renders of the same archive, identical bytes.
	var first string
	for i := 0; i < 5; i++ {
		out := filepath.Join(t.TempDir(), "tl.md")
		if got := run([]string{"timeline", "-o", out, dir}); got != 0 {
			t.Fatalf("render %d exit %d", i, got)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(b)
			continue
		}
		if string(b) != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
	for _, want := range []string{
		"2 windows covering 0.50s",
		"fault_resets_injected_total",
		"activation",
		"probe_error_rate/aws",
		"identify→probe",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("rendered timeline missing %q:\n%s", want, first)
		}
	}

	// -diff against a clean run localizes the divergence at window 1.
	clean := timelineArchive(t, root, "r-timeline-clean", []timeline.Window{
		{Index: 0, StartUS: 0, EndUS: 250000, Stage: "probe"},
		{Index: 1, StartUS: 250000, EndUS: 500000, Stage: "probe"},
	})
	out := filepath.Join(t.TempDir(), "diff.md")
	if got := run([]string{"timeline", "-diff", "-o", out, dir, clean}); got != 0 {
		t.Fatalf("diff exit %d", got)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Divergence begins at window 1") {
		t.Fatalf("diff missing divergence callout:\n%s", b)
	}

	// list surfaces the anomaly count; archives without a timeline show "-".
	timelineArchive(t, root, "r-no-timeline", nil)
	listOut := captureStdout(t, func() {
		if got := run([]string{"list", "-dir", root}); got != 0 {
			t.Fatalf("list exit %d", got)
		}
	})
	if !strings.Contains(listOut, "Anom") {
		t.Fatalf("list missing Anom column:\n%s", listOut)
	}
}

func TestRunTimelineExitCodes(t *testing.T) {
	empty := timelineArchive(t, t.TempDir(), "r-no-timeline", nil)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no args", []string{"timeline"}, 2},
		{"diff wrong arity", []string{"timeline", "-diff", "only-one"}, 2},
		{"json with diff", []string{"timeline", "-diff", "-json", empty, empty}, 2},
		{"unknown run", []string{"timeline", "-dir", t.TempDir(), "r-nope"}, 1},
		{"no timeline recorded still renders", []string{"timeline", "-o", filepath.Join(t.TempDir(), "o.md"), empty}, 0},
		{"json of empty timeline", []string{"timeline", "-json", "-o", filepath.Join(t.TempDir(), "o.json"), empty}, 0},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}

// shortHashArchive hand-writes an archive whose config hash and artifact
// digests are shorter than the 12-character display prefix. Archives are
// outside input, so show must print them rather than panic.
func shortHashArchive(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "r-short")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		runs.SummaryFile: `{"id": "r-short", "tool": "test", "config_hash": "abc", "artifacts": {"table2.csv": "d1", "empty.csv": ""}}`,
		runs.TimingsFile: `{"created_at": "2026-01-01T00:00:00Z", "elapsed_ns": 1000000, "stages": [], "metrics": {}}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
