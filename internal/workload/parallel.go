package workload

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dnssim"
	"repro/internal/pdns"
)

// normWorkers clamps a worker count: <= 0 selects GOMAXPROCS.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// shardFunctions pre-shards the function list by pdns.ShardByFQDN so each
// worker walks only its own functions, in population (FQDN-sorted) order.
func shardFunctions(pop *Population, workers int) [][]*Function {
	shards := make([][]*Function, workers)
	for _, f := range pop.Functions {
		s := pdns.ShardByFQDN(f.FQDN, workers)
		shards[s] = append(shards[s], f)
	}
	return shards
}

// batchEmitter is the one columnar record path: it generates per-function
// streams into a reused pdns.RecordBatch — the FQDN interned once per
// function, rdata interned per row, numeric columns appended in place — and
// hands the batch to its sink. The batch and its intern table live for the
// emitter's whole stream, so symbol IDs are stable across flushes (DESIGN
// #26) and sinks must consume rows before returning. One emitter serves one
// goroutine; AggregateParallelCkpt's shard loop and EmitPDNSOrdered both
// drive one per worker.
//
// Mutate hooks, when present, see each row as the scratch pdns.Record
// before it is appended with AppendRecord, so fault injection rides the
// same batch path as clean emission.
type batchEmitter struct {
	pop      *Population
	resolver *dnssim.Resolver
	batch    *pdns.RecordBatch
	sc       emitScratch
	fsym     pdns.Sym
	row      rowFunc
	limit    int // flush once the batch holds this many rows; 0 = only on flush()
	sink     func(*pdns.RecordBatch) error
	mutate   []func(*pdns.Record)
	onRow    func() // observes every appended row; may be nil
}

func newBatchEmitter(pop *Population, resolver *dnssim.Resolver, limit int, sink func(*pdns.RecordBatch) error, mutate []func(*pdns.Record)) *batchEmitter {
	e := &batchEmitter{pop: pop, resolver: resolver, batch: pdns.NewRecordBatch(limit), limit: limit, sink: sink, mutate: mutate}
	e.row = e.appendRow
	return e
}

// emit appends one function's records, flushing whenever the batch fills.
func (e *batchEmitter) emit(f *Function) error {
	e.fsym = e.batch.Syms.Intern(f.FQDN)
	e.sc.fqdn = f.FQDN
	if err := emitFunctionInto(e.pop, f, e.resolver, functionRNG(e.pop.Config.Seed, f.FQDN), &e.sc, e.row); err != nil {
		return fmt.Errorf("workload: emit %s: %w", f.FQDN, err)
	}
	return nil
}

func (e *batchEmitter) appendRow(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) error {
	if len(e.mutate) == 0 {
		e.batch.Append(e.fsym, t, e.batch.Syms.Intern(rdata), firstUnix, lastUnix, cnt, day)
	} else {
		r := e.sc.record(t, rdata, firstUnix, lastUnix, cnt, day)
		for _, m := range e.mutate {
			m(r)
		}
		e.batch.AppendRecord(r)
	}
	if e.onRow != nil {
		e.onRow()
	}
	if e.limit > 0 && e.batch.Len() >= e.limit {
		return e.flush()
	}
	return nil
}

// flush hands any pending rows to the sink and resets the batch.
func (e *batchEmitter) flush() error {
	if e.batch.Len() == 0 {
		return nil
	}
	err := e.sink(e.batch)
	e.batch.Reset()
	return err
}

// orderedSpan is the number of consecutive functions each worker emits per
// EmitPDNSOrdered block. It bounds buffered rows to a block's histories
// while amortising the block barrier.
const orderedSpan = 64

// EmitPDNSOrdered produces the exact record sequence of EmitPDNS — same
// records, same order, so a dataset written batch by batch is
// byte-identical to one written record by record — while generating the
// per-function streams on a worker pool. Each block of the population is
// split into contiguous per-worker sub-ranges, emitted in parallel, and
// flushed in worker order. The sink is always called from the caller's
// goroutine, must consume the batch before returning, and sees each worker's
// batch (with that worker's intern table) in turn. workers <= 0 selects
// GOMAXPROCS.
func EmitPDNSOrdered(pop *Population, resolver *dnssim.Resolver, workers int, sink func(*pdns.RecordBatch) error) error {
	workers = normWorkers(workers)
	ems := make([]*batchEmitter, workers)
	for i := range ems {
		ems[i] = newBatchEmitter(pop, resolver, 0, sink, nil)
	}
	errs := make([]error, workers)
	fns := pop.Functions
	for lo := 0; lo < len(fns); lo += workers * orderedSpan {
		hi := min(lo+workers*orderedSpan, len(fns))
		var wg sync.WaitGroup
		for w, e := range ems {
			sub := fns[min(lo+w*orderedSpan, hi):min(lo+(w+1)*orderedSpan, hi)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, f := range sub {
					if errs[w] = e.emit(f); errs[w] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for w, e := range ems {
			if errs[w] != nil {
				return errs[w]
			}
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}
