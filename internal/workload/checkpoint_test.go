package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnssim"
	"repro/internal/pdns"
)

// frontier is one captured emission snapshot, serialised exactly as the
// checkpoint layer would persist it (the shard aggregators are only
// quiescent during the Snapshot call, so they must be encoded then).
type frontier struct {
	rows     int64
	progress []int64
	blobs    [][]byte
}

func (f *frontier) resume(t *testing.T) *EmitResume {
	t.Helper()
	rs := &EmitResume{Rows: f.rows, Progress: append([]int64(nil), f.progress...)}
	for i, blob := range f.blobs {
		agg, err := pdns.DecodeAggregatorState(blob, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		rs.Shards = append(rs.Shards, agg)
	}
	return rs
}

func captureSnapshots(dst *[]frontier) *EmitCheckpoint {
	return &EmitCheckpoint{
		Interval: 2000,
		Snapshot: func(progress []int64, shards []*pdns.Aggregator, rows int64) error {
			f := frontier{rows: rows, progress: append([]int64(nil), progress...)}
			for _, agg := range shards {
				var buf bytes.Buffer
				if err := agg.EncodeState(&buf); err != nil {
					return err
				}
				f.blobs = append(f.blobs, append([]byte(nil), buf.Bytes()...))
			}
			*dst = append(*dst, f)
			return nil
		},
	}
}

// TestAggregateParallelCkptResume is the determinism core of crash recovery:
// for every worker count, resuming from any mid-emission snapshot must
// produce an Aggregate identical to the uninterrupted run's — same
// per-function stats, same provider tables, same trend series.
func TestAggregateParallelCkptResume(t *testing.T) {
	pop := testPop(t, 0.004)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want := aggregateParallel(t, pop, workers)
			var snaps []frontier
			got, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil, captureSnapshots(&snaps), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("checkpointing changed the uninterrupted result")
			}
			if len(snaps) == 0 {
				t.Fatal("no periodic snapshot fired")
			}
			// Resume from the first, a middle, and the last snapshot.
			for _, si := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				resumed, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil, nil, snaps[si].resume(t))
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", si, err)
				}
				if !reflect.DeepEqual(resumed, want) {
					t.Errorf("resume from snapshot %d (rows=%d) diverged from the uninterrupted run", si, snaps[si].rows)
				}
			}
		})
	}
}

// TestAggregateParallelCkptCancelSnapshot: cancelling mid-emission flushes
// one final snapshot, and resuming from it completes to the uninterrupted
// result — the contract scfpipe's SIGINT path depends on.
func TestAggregateParallelCkptCancelSnapshot(t *testing.T) {
	pop := testPop(t, 0.004)
	want := aggregateParallel(t, pop, 2)
	ctx, cancel := context.WithCancel(context.Background())
	var snaps []frontier
	ck := captureSnapshots(&snaps)
	ck.Interval = 0 // only the cancellation snapshot
	var rows atomic.Int64
	ck.OnRow = func(n int64) {
		rows.Store(n)
		if n == 1500 {
			cancel()
		}
	}
	_, err := AggregateParallelCkpt(ctx, pop, dnssim.NewResolver(), nil, 2, nil, ck, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots captured, want exactly the cancellation one", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.rows <= 0 || last.rows >= want.Scanned {
		t.Fatalf("cancellation snapshot at %d rows, want mid-emission (total %d)", last.rows, want.Scanned)
	}
	resumed, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, 2, nil, nil, last.resume(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Error("resume after cancellation diverged from the uninterrupted run")
	}
}

// TestAggregateParallelCkptShardMismatch: resume state sized for a different
// worker count must be refused, not silently re-sharded.
func TestAggregateParallelCkptShardMismatch(t *testing.T) {
	pop := testPop(t, 0.001)
	rs := &EmitResume{Progress: []int64{0, 0}, Shards: make([]*pdns.Aggregator, 2)}
	if _, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, 4, nil, nil, rs); err == nil {
		t.Fatal("resume with 2 shards accepted by a 4-worker run")
	}
}

// TestEmitCheckpointCadence: periodic snapshots fire once per multiple of
// Interval — rows/Interval of them — for every worker count and on every
// run, instead of drifting by each snapshot's overshoot. The interval is
// chosen so the last mark falls a few rows before the end of emission.
func TestEmitCheckpointCadence(t *testing.T) {
	pop := testPop(t, 0.004)
	rows := aggregateParallel(t, pop, 1).Scanned
	interval := rows/5 - 2
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			var snaps []frontier
			ck := captureSnapshots(&snaps)
			ck.Interval = interval
			if _, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil, ck, nil); err != nil {
				t.Fatal(err)
			}
			if int64(len(snaps)) != rows/interval {
				t.Fatalf("workers=%d run %d: %d snapshots over %d rows at interval %d, want %d",
					workers, run, len(snaps), rows, interval, rows/interval)
			}
		}
	}
}

// TestEmitSnapshotQuiescent: no shard emits a row while the Snapshot hook
// runs, so the aggregators the hook encodes, and the counters the emission
// path bumps, cover exactly the functions its progress names.
func TestEmitSnapshotQuiescent(t *testing.T) {
	pop := testPop(t, 0.004)
	var rows atomic.Int64
	hooks := 0
	ck := &EmitCheckpoint{
		Interval: 5000,
		OnRow:    func(n int64) { rows.Store(n) },
		Snapshot: func(progress []int64, shards []*pdns.Aggregator, n int64) error {
			hooks++ // serialised by the coordinator
			before := rows.Load()
			for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); runtime.Gosched() {
				if after := rows.Load(); after != before {
					t.Errorf("rows advanced %d -> %d while the snapshot hook ran", before, after)
					return nil
				}
			}
			return nil
		},
	}
	if _, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, 4, nil, ck, nil); err != nil {
		t.Fatal(err)
	}
	if hooks == 0 {
		t.Fatal("no periodic snapshot fired")
	}
}
