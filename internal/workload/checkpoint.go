package workload

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/dnssim"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// EmitCheckpoint wires mid-emission durability into AggregateParallelCkpt.
// The unit of progress is a whole function: a snapshot is only ever taken
// between functions, when every shard aggregator holds exactly the rows of
// the functions its progress counter covers. Because each function draws
// from its own (seed, FQDN)-keyed RNG stream, a resumed run can skip the
// covered prefix outright — no replay, no RNG cursor bookkeeping — and the
// remaining functions emit byte-identical rows.
type EmitCheckpoint struct {
	// Interval is the row period between snapshots — one fires after each
	// multiple of Interval emitted rows; <= 0 disables periodic snapshots.
	// A cancellation-time snapshot still fires whenever Snapshot is set, so
	// an interrupted run is resumable even at interval 0.
	Interval int64
	// Snapshot persists the emission frontier: functions completed per
	// shard, the shard aggregators (quiescent for the duration of the
	// call: every shard lock is held across it, so it must not wait on
	// emission), and the global emitted-row count. Errors are the callee's
	// to absorb — emission never aborts on a failed snapshot.
	Snapshot func(progress []int64, shards []*pdns.Aggregator, rows int64) error
	// OnRow observes the global emitted-row count after each append; the
	// crash injector's row-targeted kill point hangs off it.
	OnRow func(n int64)
}

// EmitResume restarts emission from a checkpointed frontier. Progress and
// Shards are indexed by shard and must match the worker count — the run ID
// hashes the worker count, so a mismatch means the caller resumed the wrong
// checkpoint.
type EmitResume struct {
	Rows     int64
	Progress []int64
	Shards   []*pdns.Aggregator
}

// emitShardState is one shard's slot in the coordinator. Its mutex is held
// by the owning worker across each function's emission and by the
// snapshotter while flushing, which is what makes "between functions" a
// real quiescent point rather than a hope.
type emitShardState struct {
	mu       sync.Mutex
	progress int64        // functions fully emitted, guarded by mu
	flush    func() error // drains the pending batch; nil until registered
}

// emitCoord coordinates checkpoint-aware parallel emission: per-shard
// function-granularity locking, a global row counter, and the snapshot
// rendezvous. Lock order is snapMu, then shard locks ascending; workers
// only ever take their own shard lock, so the rendezvous cannot deadlock.
type emitCoord struct {
	ck      *EmitCheckpoint
	aggs    []*pdns.Aggregator
	shards  []emitShardState
	rows    atomic.Int64
	nextDue atomic.Int64
	snapMu  sync.Mutex
}

// maybeSnapshot takes a periodic snapshot when the row counter has crossed
// the next due mark. Due marks sit at fixed multiples of Interval, so the
// snapshot count of a run is rows/Interval whatever the worker count and
// however far past a mark the snapshotting worker overshot. Called between
// functions with no locks held.
func (c *emitCoord) maybeSnapshot() {
	if c.ck == nil || c.ck.Snapshot == nil || c.ck.Interval <= 0 {
		return
	}
	if c.rows.Load() < c.nextDue.Load() {
		return
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.rows.Load() < c.nextDue.Load() {
		return // another worker snapshotted while we waited
	}
	c.nextDue.Store(nextMark(c.snapshotLocked(), c.ck.Interval))
}

// nextMark returns the first multiple of interval strictly above rows.
func nextMark(rows, interval int64) int64 {
	return (rows/interval + 1) * interval
}

// snapshotLocked quiesces every shard — acquiring all shard locks, so no
// function is mid-emission anywhere — flushes pending batch rows into the
// aggregators, and hands the frontier to the Snapshot hook before letting
// the shards go, so the hook encodes aggregators (and reads counters) that
// no worker is touching. It returns the row count snapshotted. Caller
// holds snapMu.
func (c *emitCoord) snapshotLocked() int64 {
	progress := make([]int64, len(c.shards))
	for i := range c.shards {
		c.shards[i].mu.Lock()
		defer c.shards[i].mu.Unlock()
	}
	for i := range c.shards {
		if fl := c.shards[i].flush; fl != nil {
			fl()
		}
		progress[i] = c.shards[i].progress
	}
	rows := c.rows.Load()
	c.ck.Snapshot(progress, c.aggs, rows)
	return rows
}

// countRow bumps the global row counter and feeds the crash injector.
func (c *emitCoord) countRow() {
	n := c.rows.Add(1)
	if c.ck.OnRow != nil {
		c.ck.OnRow(n)
	}
}

// emitShard is the one shard loop: it drives the shard's batch emitter over
// funcs with function-granular locking, resume skip, cancellation checks and
// a final flush. Rows are counted through the emitter's onRow hook.
func (c *emitCoord) emitShard(ctx context.Context, i int, funcs []*Function, e *batchEmitter) error {
	st := &c.shards[i]
	st.mu.Lock()
	start := st.progress // functions durable in the resumed-from run; no replay needed
	st.flush = e.flush
	st.mu.Unlock()

	for fi := start; fi < int64(len(funcs)); fi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		err := e.emit(funcs[fi])
		if err == nil {
			st.progress = fi + 1
		}
		st.mu.Unlock()
		if err != nil {
			return err
		}
		c.maybeSnapshot()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return e.flush()
}

// ctxOnlyErrors reports whether every non-nil shard error is a context
// cancellation — the one failure shape worth checkpointing through.
func ctxOnlyErrors(errs []error) bool {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return false
		}
	}
	return true
}

// AggregateParallelCkpt runs the whole substrate→identification hot path —
// synthetic PDNS emission plus §3.2 aggregation — on a worker pool: one
// shard-local pdns.Aggregator per worker fed directly, batch by batch
// (Aggregator.AddBatch), by that worker's batch emitter, merged at the end.
// Because functions are sharded by FQDN and every per-FQDN stream is
// order-independent, the result is identical to the serial EmitPDNS →
// Aggregator pass for any worker count.
//
// Each shard aggregator is pre-sized from its expected function count, and
// the merge folds the smaller shards into the largest one instead of
// growing shard 0's maps by the whole fleet — the two fixes for the
// negative scaling the bench history recorded at workers=2.
//
// ctx carries the stage trace: each worker shard records an
// "emit-shard-<i>" span with its record count. reg receives the
// aggregators' shared throughput counters; both may be nil. A nil matcher
// selects all collected providers.
//
// ck (may be nil) snapshots the emission frontier periodically and on
// cancellation, and rs (may be nil) restarts from a snapshotted frontier —
// restored shard aggregators continue accumulating and each shard skips its
// covered function prefix. The final Aggregate is byte-identical to an
// uninterrupted run's, because progress is tracked at whole-function
// granularity and per-function RNG streams make emission independent of
// which run emitted the earlier functions.
//
// mutate hooks, if given, run on each record before aggregation — the
// fault-injection layer uses one to corrupt a deterministic fraction of the
// feed (mangled records then fail validation inside the aggregator and are
// counted as dropped, exactly as a real feed's garbage rows would be). A
// hook must be safe for concurrent calls; each record it sees is owned by
// the current worker for the duration of the call.
func AggregateParallelCkpt(ctx context.Context, pop *Population, resolver *dnssim.Resolver, matcher *providers.Matcher, workers int, reg *obs.Registry, ck *EmitCheckpoint, rs *EmitResume, mutate ...func(*pdns.Record)) (*pdns.Aggregate, error) {
	workers = normWorkers(workers)
	if rs != nil && (len(rs.Progress) != workers || len(rs.Shards) != workers) {
		return nil, fmt.Errorf("workload: resume state has %d shards, run has %d workers", len(rs.Progress), workers)
	}
	w := Window()
	aggs := make([]*pdns.Aggregator, workers)
	spans := make([]*obs.Span, workers)
	counts := make([]int64, workers)
	emitVec := reg.CounterVec("workload_emit_records_total", "shard")
	emitted := make([]*obs.Counter, workers)
	// Hash sharding is mildly uneven; a quarter of headroom on the expected
	// per-shard function count avoids both rehashing and gross oversizing.
	expect := len(pop.Functions)/workers + len(pop.Functions)/(4*workers) + 16
	for i := range aggs {
		var agg *pdns.Aggregator
		if rs != nil && rs.Shards[i] != nil {
			agg = rs.Shards[i] // restored state is already sized by its contents
		} else {
			agg = pdns.NewAggregator(matcher, w.Start, w.End)
			agg.Presize(expect)
		}
		shard := fmt.Sprintf("%d", i)
		agg.InstrumentShard(reg, shard)
		aggs[i] = agg
		emitted[i] = emitVec.With(shard)
		_, spans[i] = obs.StartSpan(ctx, fmt.Sprintf("emit-shard-%d", i))
	}
	mWorkers := reg.Gauge("workload_emit_workers")
	mWorkers.Set(int64(workers))

	c := &emitCoord{ck: ck, aggs: aggs, shards: make([]emitShardState, workers)}
	if rs != nil {
		c.rows.Store(rs.Rows)
		for i := range c.shards {
			c.shards[i].progress = rs.Progress[i]
		}
	}
	if ck != nil && ck.Interval > 0 {
		c.nextDue.Store(nextMark(c.rows.Load(), ck.Interval))
	}

	shards := shardFunctions(pop, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Shard attribution for CPU profiles: merge a "shard" pprof
			// label into whatever labels ctx already carries (core's
			// startStage puts the "stage" label there), so profile samples
			// answer "which shard of identify burnt the time".
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("shard", fmt.Sprintf("%d", wkr))))
			agg := aggs[wkr]
			e := newBatchEmitter(pop, resolver, pdns.DefaultBatchRows, func(b *pdns.RecordBatch) error {
				agg.AddBatch(b)
				n := int64(b.Len())
				counts[wkr] += n
				emitted[wkr].Add(n)
				return nil
			}, mutate)
			if ck != nil {
				e.onRow = c.countRow
			}
			errs[wkr] = c.emitShard(ctx, wkr, shards[wkr], e)
		}(wkr)
	}
	wg.Wait()

	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	// A cancelled run gets one final snapshot so -resume can pick up from
	// the exact interruption point; any real emission error skips it.
	if err != nil && ctx.Err() != nil && ck != nil && ck.Snapshot != nil && ctxOnlyErrors(errs) {
		c.snapMu.Lock()
		c.snapshotLocked()
		c.snapMu.Unlock()
	}
	for i, sp := range spans {
		sp.SetAttr("records", counts[i])
		sp.SetError(err)
		sp.End()
	}
	if err != nil {
		return nil, err
	}

	finished := make([]*pdns.Aggregate, workers)
	for i, a := range aggs {
		finished[i] = a.Finish()
	}
	base := 0
	for i, ag := range finished {
		if ag.TotalDomains() > finished[base].TotalDomains() {
			base = i
		}
	}
	out := finished[base]
	for i, ag := range finished {
		if i == base {
			continue
		}
		if merr := out.Merge(ag); merr != nil {
			return nil, merr
		}
	}
	return out, nil
}
