package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dnssim"
	"repro/internal/fault"
	"repro/internal/pdns"
)

// serialAggregate is the reference path: the sequential EmitPDNS feeding one
// scalar Aggregator, exactly as the pipeline ran before parallelisation.
// Mutate hooks, if given, run on each record before Add.
func serialAggregate(t *testing.T, pop *Population, mutate ...func(*pdns.Record)) *pdns.Aggregate {
	t.Helper()
	w := Window()
	agg := pdns.NewAggregator(nil, w.Start, w.End)
	if err := EmitPDNS(pop, dnssim.NewResolver(), func(r *pdns.Record) error {
		for _, m := range mutate {
			m(r)
		}
		agg.Add(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return agg.Finish()
}

// aggregateParallel is AggregateParallelCkpt without a checkpoint seam.
func aggregateParallel(t *testing.T, pop *Population, workers int, mutate ...func(*pdns.Record)) *pdns.Aggregate {
	t.Helper()
	ag, err := AggregateParallelCkpt(context.Background(), pop, dnssim.NewResolver(), nil, workers, nil, nil, nil, mutate...)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// TestAggregateParallelMatchesSerial is the determinism regression for the
// parallel hot path: for every worker count the parallel aggregate must be
// identical to the serial one — same per-function stats, same Table 2 rows,
// same Figure 3–5 series — not merely statistically close.
func TestAggregateParallelMatchesSerial(t *testing.T) {
	pop := testPop(t, 0.004)
	want := serialAggregate(t, pop)
	wantTable2 := analysis.Table2(want)
	wantNew := analysis.NewFQDNsByMonth(want)
	wantTrend := analysis.InvocationTrend(want)
	wantFreq := analysis.Frequency(want.PerFunctionStats())

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := aggregateParallel(t, pop, workers)
			if got.Scanned != want.Scanned || got.Matched != want.Matched {
				t.Fatalf("scanned/matched = %d/%d, want %d/%d",
					got.Scanned, got.Matched, want.Scanned, want.Matched)
			}
			if !reflect.DeepEqual(got.PerFunctionStats(), want.PerFunctionStats()) {
				t.Error("PerFunctionStats differs from serial pass")
			}
			if !reflect.DeepEqual(analysis.Table2(got), wantTable2) {
				t.Error("Table 2 rows differ from serial pass")
			}
			if !reflect.DeepEqual(analysis.NewFQDNsByMonth(got), wantNew) {
				t.Error("Figure 3 series differs from serial pass")
			}
			if !reflect.DeepEqual(analysis.InvocationTrend(got), wantTrend) {
				t.Error("Figure 4 series differs from serial pass")
			}
			if !reflect.DeepEqual(analysis.Frequency(got.PerFunctionStats()), wantFreq) {
				t.Error("Figure 5 frequency stats differ from serial pass")
			}
		})
	}
}

// TestEmitPDNSOrderedMatchesSerial checks the stronger guarantee of the
// ordered writer: a dataset written batch by batch from it is byte-identical
// to the per-record Writer.Write of the serial emission, in both formats and
// for every worker count — what keeps pdnsgen output independent of
// -workers. A failing sink aborts the stream with its error.
func TestEmitPDNSOrderedMatchesSerial(t *testing.T) {
	pop := testPop(t, 0.002)
	write := func(f pdns.Format, emit func(w *pdns.Writer) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		w := pdns.NewWriter(&buf, f)
		if err := emit(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	formats := map[string]pdns.Format{"tsv": pdns.TSV, "jsonl": pdns.JSONL}
	want := map[string][]byte{}
	for name, f := range formats {
		want[name] = write(f, func(w *pdns.Writer) error { return EmitPDNS(pop, dnssim.NewResolver(), w.Write) })
	}
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for name, f := range formats {
				got := write(f, func(w *pdns.Writer) error {
					return EmitPDNSOrdered(pop, dnssim.NewResolver(), workers, w.WriteBatch)
				})
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s: ordered output (%d bytes) differs from serial Write (%d bytes)", name, len(got), len(want[name]))
				}
			}
			boom := errors.New("boom")
			if err := EmitPDNSOrdered(pop, dnssim.NewResolver(), workers, func(*pdns.RecordBatch) error { return boom }); !errors.Is(err, boom) {
				t.Errorf("sink error: got %v, want %v", err, boom)
			}
		})
	}
}

// TestGenerateWorkerInvariance: the fleet must not depend on the generation
// worker count — every provider draws from its own seed-derived stream.
func TestGenerateWorkerInvariance(t *testing.T) {
	base := Generate(Config{Seed: 11, Scale: 0.003})
	for _, workers := range []int{1, 2, 8} {
		pop := Generate(Config{Seed: 11, Scale: 0.003, Workers: workers})
		if len(pop.Functions) != len(base.Functions) {
			t.Fatalf("workers=%d: %d functions, want %d", workers, len(pop.Functions), len(base.Functions))
		}
		for i := range pop.Functions {
			if !reflect.DeepEqual(pop.Functions[i], base.Functions[i]) {
				t.Fatalf("workers=%d: function %d differs:\n got %+v\nwant %+v",
					workers, i, pop.Functions[i], base.Functions[i])
			}
		}
	}
}

// emitShards drives one batch emitter per FQDN shard over its functions,
// the way AggregateParallelCkpt's shard loop does, with sinkFor(i) as shard
// i's sink, flushing every limit rows.
func emitShards(pop *Population, workers, limit int, sinkFor func(i int) func(*pdns.RecordBatch) error) error {
	for i, funcs := range shardFunctions(pop, workers) {
		e := newBatchEmitter(pop, dnssim.NewResolver(), limit, sinkFor(i), nil)
		for _, f := range funcs {
			if err := e.emit(f); err != nil {
				return err
			}
		}
		if err := e.flush(); err != nil {
			return err
		}
	}
	return nil
}

// TestEmitPDNSParallelBatchMatchesScalar: for every worker count, each
// shard's batch stream must materialise to exactly the records the scalar
// EmitPDNS delivers for that shard's functions — same values, same order.
// Sink errors surface from the emitter.
func TestEmitPDNSParallelBatchMatchesScalar(t *testing.T) {
	pop := testPop(t, 0.002)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want := make([][]pdns.Record, workers)
			if err := EmitPDNS(pop, dnssim.NewResolver(), func(r *pdns.Record) error {
				i := pdns.ShardByFQDN(r.FQDN, workers)
				want[i] = append(want[i], *r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			got := make([][]pdns.Record, workers)
			// A small batch size forces many flush/Reset cycles per shard.
			if err := emitShards(pop, workers, 64, func(i int) func(*pdns.RecordBatch) error {
				return func(b *pdns.RecordBatch) error {
					var rec pdns.Record
					for j := 0; j < b.Len(); j++ {
						b.At(j, &rec)
						got[i] = append(got[i], rec)
					}
					return nil
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("shard %d: %d batch records, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("shard %d record %d = %+v, want %+v", i, j, got[i][j], want[i][j])
					}
				}
			}

			boom := errors.New("boom")
			if err := emitShards(pop, workers, 64, func(int) func(*pdns.RecordBatch) error {
				return func(*pdns.RecordBatch) error { return boom }
			}); !errors.Is(err, boom) {
				t.Errorf("sink error: got %v, want %v", err, boom)
			}
		})
	}
}

// TestBatchEmitterSymbolStability pins the DESIGN #26 determinism rule at
// the seam that depends on it: for a fixed worker count, each shard's
// intern table assigns the same symbol to the same string run after run,
// and the raw symbol columns themselves are identical.
func TestBatchEmitterSymbolStability(t *testing.T) {
	pop := testPop(t, 0.002)
	type shardDump struct {
		symbols []pdns.Sym
		strings []string
	}
	run := func(workers int) []shardDump {
		dumps := make([]shardDump, workers)
		tabs := make([]*pdns.Symtab, workers)
		if err := emitShards(pop, workers, 64, func(i int) func(*pdns.RecordBatch) error {
			return func(b *pdns.RecordBatch) error {
				tabs[i] = b.Syms
				dumps[i].symbols = append(dumps[i].symbols, b.FQDN...)
				dumps[i].symbols = append(dumps[i].symbols, b.RData...)
				return nil
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, tab := range tabs {
			for s := 0; s < tab.Len(); s++ {
				dumps[i].strings = append(dumps[i].strings, tab.Lookup(pdns.Sym(s)))
			}
		}
		return dumps
	}
	for _, workers := range []int{1, 2, 8} {
		a, b := run(workers), run(workers)
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("workers=%d shard %d: symbol assignment differs between runs", workers, i)
			}
		}
	}
}

// TestAggregateParallelMutateHook checks the fault-injection seam: a mutate
// hook corrupting a deterministic fraction of records, applied on the batch
// path, yields an aggregate identical to the serial scalar oracle
// (EmitPDNS → hook → Add) for every worker count — corruption is part of the
// schedule, not of the interleaving or the record representation.
func TestAggregateParallelMutateHook(t *testing.T) {
	pop := testPop(t, 0.004)
	in := fault.New(fault.Profile{Name: "t", Seed: 7, FeedCorrupt: 0.05})
	mutate := func(r *pdns.Record) { in.CorruptRecord(r) }

	want := serialAggregate(t, pop, mutate)
	if want.Dropped == 0 {
		t.Fatal("corrupting mutate hook dropped no records")
	}
	for _, workers := range []int{1, 2, 8} {
		got := aggregateParallel(t, pop, workers, mutate)
		if got.Scanned != want.Scanned || got.Matched != want.Matched || got.Dropped != want.Dropped || got.TotalDomains() != want.TotalDomains() {
			t.Errorf("workers=%d scanned/matched/dropped/domains = %d/%d/%d/%d, want %d/%d/%d/%d", workers,
				got.Scanned, got.Matched, got.Dropped, got.TotalDomains(),
				want.Scanned, want.Matched, want.Dropped, want.TotalDomains())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: batch-path aggregate differs from the serial scalar oracle", workers)
		}
	}

	// The clean aggregate must not see any of this: the hook is opt-in.
	clean := aggregateParallel(t, pop, 4)
	if clean.Dropped != 0 {
		t.Errorf("clean run dropped %d records", clean.Dropped)
	}
	if clean.TotalDomains() < want.TotalDomains() {
		t.Errorf("clean domains %d < corrupted domains %d", clean.TotalDomains(), want.TotalDomains())
	}
}
