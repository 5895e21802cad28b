package divecloud

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundaries pins the one-way package boundaries: the paper table
// is a leaf above providers, the observability packages (metrics, timeline,
// health, profiles) never reach into the pipeline they observe — core alone
// wires them to it — and the measurement packages stay decoupled: content
// is a leaf, pdns sits on providers and the binary codec, and probe takes
// its breaker as a local interface rather than importing the fault layer,
// which in turn reaches a probe request only through probe.Expire.
// The run archive and its reader never run the pipeline: runs and
// cmd/scfruns import no pipeline stage, fault layer or core.
func TestImportBoundaries(t *testing.T) {
	allowed := map[string][]string{
		"internal/paper":        {"internal/providers"},
		"internal/providers":    nil,
		"internal/prof":         nil,
		"internal/obs":          {"internal/prof"},
		"internal/obs/timeline": {"internal/obs", "internal/prof"},
		"internal/health":       {"internal/obs", "internal/prof"},
		"internal/probe":        {"internal/obs", "internal/pdns"},
		"internal/fault":        {"internal/obs", "internal/pdns", "internal/probe"},
		"internal/content":      nil,
		"internal/pdns":         {"internal/binio", "internal/obs", "internal/providers"},
		"internal/runs":         {"internal/health", "internal/obs", "internal/obs/timeline", "internal/paper", "internal/prof", "internal/report"},
		"cmd/scfruns":           {"internal/checkpoint", "internal/obs", "internal/obs/timeline", "internal/paper", "internal/prof", "internal/report", "internal/runs"},
	}
	for dir, ok := range allowed {
		for _, imp := range repoImports(t, dir) {
			if !slices.Contains(ok, imp) {
				t.Errorf("%s imports %s; allowed repo imports: %v", dir, imp, ok)
			}
		}
	}
}

// repoImports lists the module-internal packages imported by the non-test
// Go files of dir, as module-relative paths.
func repoImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		af, err := parser.ParseFile(fset, f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range af.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			if rel, ok := strings.CutPrefix(path, "repro/"); ok {
				seen[rel] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
