package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/probe"
)

// testSnapshot builds a snapshot exercising every section: header, ledger,
// emission frontier (two shard aggregators), merged aggregate, probe state,
// counters.
func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	start := pdns.NewDate(2022, time.April, 1)
	end := start.AddDays(729)
	mk := func(fqdn string, days ...int) *pdns.Aggregator {
		agg := pdns.NewAggregator(nil, start, end)
		for _, d := range days {
			day := start.AddDays(d)
			ts := day.Time().Add(2 * time.Hour)
			agg.Add(&pdns.Record{
				FQDN: fqdn, RType: pdns.TypeA, RData: "1.2.3.4",
				FirstSeen: ts, LastSeen: ts.Add(5 * time.Minute),
				RequestCnt: int64(7 + d), PDate: day,
			})
		}
		return agg
	}
	return &Snapshot{
		Header: Header{
			RunID: "r-0123456789ab", Seed: 42, Workers: 3,
			Seq: 17, Stage: "identify", Rows: 123456, ResumedFromSeq: 4,
		},
		Stages: []string{"substrate", "identify"},
		Emission: &Emission{
			Rows:     123456,
			Progress: []int64{10, 12},
			Shards: []*pdns.Aggregator{
				mk("a.lambda-url.us-east-1.on.aws", 0, 3, 9),
				mk("1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com", 1, 2),
			},
		},
		Aggregate: mk("b.lambda-url.us-east-1.on.aws", 5, 6).Finish(),
		Probe: &ProbeState{
			Results: []probe.Result{
				{FQDN: "a.example", Reachable: true, HTTPS: true, Status: 200,
					ContentType: "text/html", Body: []byte("<html>hi</html>"),
					Attempts: 1, Elapsed: 1500 * time.Microsecond},
				{FQDN: "b.example", Failure: probe.FailDNS, Attempts: 3},
			},
			Stats: probe.Stats{Probed: 2, Reachable: 1, Unreachable: 1,
				DNSFailures: 1, Requests: 4, Retried: 2},
		},
		Counters: map[string]int64{"fault_resets_injected_total": 3, "pdns_records_dropped_total": 41},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != snap.Header {
		t.Errorf("header = %+v, want %+v", got.Header, snap.Header)
	}
	if !reflect.DeepEqual(got.Stages, snap.Stages) {
		t.Errorf("stages = %v, want %v", got.Stages, snap.Stages)
	}
	if !reflect.DeepEqual(got.Aggregate, snap.Aggregate) {
		t.Error("aggregate did not round-trip")
	}
	if !reflect.DeepEqual(got.Probe, snap.Probe) {
		t.Errorf("probe state = %+v, want %+v", got.Probe, snap.Probe)
	}
	if !reflect.DeepEqual(got.Counters, snap.Counters) {
		t.Errorf("counters = %v, want %v", got.Counters, snap.Counters)
	}
	if got.Emission == nil || got.Emission.Rows != snap.Emission.Rows ||
		!reflect.DeepEqual(got.Emission.Progress, snap.Emission.Progress) {
		t.Fatalf("emission frontier did not round-trip: %+v", got.Emission)
	}
	// Restored shard aggregators must finish identically to the originals.
	for i := range snap.Emission.Shards {
		want := snap.Emission.Shards[i].Finish()
		if have := got.Emission.Shards[i].Finish(); !reflect.DeepEqual(have, want) {
			t.Errorf("shard %d finished differently after restore", i)
		}
	}
	if !got.HasStage("identify") || got.HasStage("probe") {
		t.Error("HasStage does not reflect the decoded ledger")
	}
}

// TestDecodeTruncation: every prefix of a valid checkpoint decodes to an
// error wrapping ErrCorrupt — a torn write can never be mistaken for a
// shorter valid checkpoint, because the "end" trailer is mandatory.
func TestDecodeTruncation(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 1 + n/64 {
		if _, derr := Decode(data[:n]); !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("Decode(%d of %d bytes) = %v, want ErrCorrupt", n, len(data), derr)
		}
	}
}

// TestDecodeBitFlip: flipping any byte breaks a section CRC (or the framing)
// and must surface as ErrCorrupt.
func TestDecodeBitFlip(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += 1 + i/32 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, derr := Decode(mut); derr == nil {
			t.Fatalf("Decode accepted a checkpoint with byte %d flipped", i)
		} else if !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorrupt", i, derr)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := Decode(append(append([]byte(nil), data...), 0xde, 0xad)); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", derr)
	}
}

// newTestManager builds a manager writing under a temp run root and returns
// it with its root.
func newTestManager(t *testing.T, runID string) (*Manager, string) {
	t.Helper()
	root := t.TempDir()
	m := NewManager(Dir(root, runID), runID, 1, 2, obs.NewRegistry(), obs.NewEventLog())
	return m, root
}

// TestManagerLifecycle drives a manager through boundary and emission
// snapshots and checks sequencing, pruning, Latest, and Info.
func TestManagerLifecycle(t *testing.T) {
	const runID = "r-aaaaaaaaaaaa"
	m, root := newTestManager(t, runID)
	m.StageDone("substrate", nil, nil)
	m.SaveEmission([]int64{3, 4}, []*pdns.Aggregator{
		pdns.NewAggregator(nil, pdns.NewDate(2022, time.April, 1), pdns.NewDate(2024, time.March, 31)),
		pdns.NewAggregator(nil, pdns.NewDate(2022, time.April, 1), pdns.NewDate(2024, time.March, 31)),
	}, 2000)
	for _, stage := range []string{"identify", "probe", "sanitise"} {
		m.StageDone(stage, nil, nil)
	}
	// Idempotent ledger: re-announcing a completed stage must not duplicate.
	m.StageDone("sanitise", nil, nil)

	files := checkpointFiles(Dir(root, runID))
	if len(files) != keepFiles {
		t.Fatalf("%d checkpoint files on disk, want pruned to %d: %v", len(files), keepFiles, files)
	}
	snap, warns, err := Latest(root, runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("unexpected warnings: %v", warns)
	}
	if snap.Header.Seq != 6 || snap.Header.Stage != "sanitise" {
		t.Errorf("latest = seq %d stage %q, want seq 6 stage sanitise", snap.Header.Seq, snap.Header.Stage)
	}
	want := []string{"substrate", "identify", "probe", "sanitise"}
	if !reflect.DeepEqual(snap.Stages, want) {
		t.Errorf("ledger = %v, want %v", snap.Stages, want)
	}
	if li := m.Info(); li.Writes != 6 || li.LastSeq != 6 || li.Resumed {
		t.Errorf("lineage = %+v", li)
	}

	infos := Inspect(Dir(root, runID))
	if len(infos) != keepFiles {
		t.Fatalf("Inspect returned %d entries, want %d", len(infos), keepFiles)
	}
	for _, fi := range infos {
		if fi.Err != "" {
			t.Errorf("%s unexpectedly corrupt: %s", fi.Name, fi.Err)
		}
	}
}

// TestLatestSkipsTornNewest: a truncated newest file (torn write) falls back
// to the previous valid checkpoint with a warning; Inspect reports the
// corruption instead of hiding it.
func TestLatestSkipsTornNewest(t *testing.T) {
	const runID = "r-bbbbbbbbbbbb"
	m, root := newTestManager(t, runID)
	m.StageDone("substrate", nil, nil)
	m.StageDone("identify", nil, nil)
	dir := Dir(root, runID)
	newest := filepath.Join(dir, fileName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, warns, err := Latest(root, runID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Header.Seq != 1 || snap.Header.Stage != "substrate" {
		t.Errorf("fell back to seq %d stage %q, want seq 1 substrate", snap.Header.Seq, snap.Header.Stage)
	}
	if len(warns) != 1 {
		t.Errorf("warnings = %v, want exactly one for the torn file", warns)
	}
	var corrupt int
	for _, fi := range Inspect(dir) {
		if fi.Err != "" {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Errorf("Inspect reported %d corrupt files, want 1", corrupt)
	}
}

// TestLatestFailureShapes pins the two no-checkpoint outcomes apart:
// ErrNoCheckpoint when the root is empty of checkpoints (caller may start
// fresh), ErrMismatch when checkpoints exist only under other run IDs (the
// configuration changed between crash and resume).
func TestLatestFailureShapes(t *testing.T) {
	m, root := newTestManager(t, "r-cccccccccccc")
	if _, _, err := Latest(root, "r-cccccccccccc"); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty root: err = %v, want ErrNoCheckpoint", err)
	}
	m.StageDone("substrate", nil, nil)
	if _, _, err := Latest(root, "r-dddddddddddd"); !errors.Is(err, ErrMismatch) {
		t.Errorf("other run checkpointed: err = %v, want ErrMismatch", err)
	}
	// A checkpoint whose embedded run ID disagrees with its directory is
	// skipped, never resumed under the wrong configuration.
	wrong := Dir(root, "r-dddddddddddd")
	if err := os.MkdirAll(wrong, 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(Dir(root, "r-cccccccccccc"), fileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(wrong, fileName(1)), src, 0o644); err != nil {
		t.Fatal(err)
	}
	_, warns, err := Latest(root, "r-dddddddddddd")
	if err == nil {
		t.Fatal("resumed a checkpoint embedding a different run ID")
	}
	if len(warns) != 1 {
		t.Errorf("warnings = %v, want one about the foreign run ID", warns)
	}
}

// TestManagerNilSafe: a nil manager is the disabled path and must be inert.
func TestManagerNilSafe(t *testing.T) {
	var m *Manager
	m.StageDone("substrate", nil, nil)
	m.SaveEmission(nil, nil, 0)
	m.Restore(&Snapshot{})
	if li := m.Info(); li != (Lineage{}) {
		t.Errorf("nil manager lineage = %+v", li)
	}
}

// TestManagerRestoreContinuesSequence: a resumed manager continues its
// parent's numbering and carries the ledger forward cumulatively.
func TestManagerRestoreContinuesSequence(t *testing.T) {
	const runID = "r-eeeeeeeeeeee"
	m, root := newTestManager(t, runID)
	m.Restore(&Snapshot{
		Header: Header{RunID: runID, Seq: 9, Stage: "probe"},
		Stages: []string{"substrate", "identify", "probe"},
	})
	m.StageDone("sanitise", nil, nil)
	snap, _, err := Latest(root, runID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Header.Seq != 10 || snap.Header.ResumedFromSeq != 9 {
		t.Errorf("resumed write = seq %d (from %d), want 10 (from 9)", snap.Header.Seq, snap.Header.ResumedFromSeq)
	}
	want := []string{"substrate", "identify", "probe", "sanitise"}
	if !reflect.DeepEqual(snap.Stages, want) {
		t.Errorf("ledger = %v, want %v", snap.Stages, want)
	}
	if li := m.Info(); !li.Resumed || li.ResumedFrom != 9 || li.ResumedStage != "probe" {
		t.Errorf("lineage = %+v", li)
	}
}

// TestEncodeDeterministic: the same snapshot always encodes to the same
// bytes, so checkpoint files are diffable across machines.
func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same snapshot differ")
	}
}

// TestManagerPersistsCounters: snapshots carry the named counters (minus
// checkpoint_/recovery_ ones and zeros), and Restore adds them back to the
// resumed run's registry on top of anything already counted there.
func TestManagerPersistsCounters(t *testing.T) {
	const runID = "r-cccccccccccc"
	root := t.TempDir()
	reg := obs.NewRegistry()
	m := NewManager(Dir(root, runID), runID, 1, 2, reg, nil)
	m.PersistCounters("fault_resets_injected_total", "probe_conn_retries_total",
		"recovery_resumed_total", "checkpoint_write_errors_total")
	reg.Counter("fault_resets_injected_total").Add(7)
	reg.Counter("recovery_resumed_total").Inc()
	reg.Counter("checkpoint_write_errors_total").Inc()
	m.StageDone("probe", nil, nil)

	snap, _, err := Latest(root, runID)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"fault_resets_injected_total": 7}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Fatalf("persisted counters = %v, want %v", snap.Counters, want)
	}

	resumed := obs.NewRegistry()
	resumed.Counter("fault_resets_injected_total").Add(2)
	NewManager(Dir(root, runID), runID, 1, 2, resumed, nil).Restore(snap)
	if got := resumed.Counter("fault_resets_injected_total").Value(); got != 9 {
		t.Errorf("restored counter = %d, want 9", got)
	}
	if got := resumed.Snapshot().Counters["recovery_resumed_total"]; got != 0 {
		t.Errorf("recovery counter restored as %d, want it left out", got)
	}
}

// TestRestoreWithoutCountersSection: a checkpoint written before the
// counters section existed (none in the file) still decodes and resumes,
// adding nothing to the registry.
func TestRestoreWithoutCountersSection(t *testing.T) {
	snap := testSnapshot(t)
	snap.Counters = nil
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(secCounters)) {
		t.Fatal("a snapshot without counters wrote a counters section")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != nil {
		t.Errorf("counters = %v, want nil", got.Counters)
	}
	reg := obs.NewRegistry()
	m := NewManager(t.TempDir(), got.Header.RunID, 42, 3, reg, nil)
	m.Restore(got)
	for name := range reg.Snapshot().Counters {
		if !strings.HasPrefix(name, "checkpoint_") { // the manager's own
			t.Errorf("restore registered counter %s", name)
		}
	}
	m.StageDone("probe", nil, nil)
	if li := m.Info(); li.Writes != 1 || li.ResumedFrom != got.Header.Seq {
		t.Errorf("lineage after resume = %+v", li)
	}
}
