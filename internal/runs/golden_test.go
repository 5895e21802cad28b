package runs

import (
	"path/filepath"
	"testing"

	"repro/internal/paper"
)

// The committed golden archive under testdata/golden is the `make gate`
// baseline: scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2.
// Regenerate it by re-running that command and copying .runs/<id>/ over.

func TestGoldenSelfGateIsClean(t *testing.T) {
	rec, err := Read(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(rec, rec)
	if v := rep.Gate(DefaultGateOptions()); len(v) != 0 {
		t.Fatalf("golden must gate clean against itself: %v", v)
	}
}

func TestGoldenShape(t *testing.T) {
	rec, err := Read(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Summary.ID != RunID(rec.Summary.ConfigHash) {
		t.Fatalf("ID %s does not derive from config hash %s", rec.Summary.ID, rec.Summary.ConfigHash)
	}
	if rec.Summary.ConfigHash != ConfigHash(rec.Summary.Meta) {
		t.Fatal("config hash does not match recorded meta — was meta edited by hand?")
	}
	for name := range DeterministicArtifacts {
		fp, ok := rec.Summary.Artifacts[name]
		if !ok || len(fp) != 64 {
			t.Fatalf("deterministic artifact %s missing or unfingerprinted (%q)", name, fp)
		}
		body, err := rec.ReadArtifact(name)
		if err != nil {
			t.Fatalf("artifact %s content missing: %v", name, err)
		}
		if Fingerprint(body) != fp {
			t.Fatalf("artifact %s content does not match its fingerprint", name)
		}
	}
	// Every calibration share the golden run measured must sit inside the
	// paper band its gate enforces — otherwise make gate would fail fresh
	// checkouts. skip-c2 runs still measure all ten shares.
	for _, tg := range paper.Targets {
		v, ok := rec.Summary.Calibration[tg.Name]
		if !ok {
			t.Fatalf("golden calibration missing %s", tg.Name)
		}
		if !tg.Contains(v) {
			t.Fatalf("golden %s = %.4f outside band [%.4f, %.4f]", tg.Name, v, tg.Lo, tg.Hi)
		}
	}
	if len(rec.Timings.Stages) == 0 || rec.Timings.Stage("probe") == nil {
		t.Fatalf("golden timings missing stages: %+v", rec.Timings.Stages)
	}
}
