package main

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/runs"
	"repro/internal/workload"
)

// Usage workload: the offline §4 usage study with two workers,
// checkpointing every 250k emitted rows (the scfpipe default).
const (
	usageWorkers   = 2
	usageCkptEvery = 250000
)

// ckptMeter times and sizes checkpoint writes made through a manager.
type ckptMeter struct {
	bytes  *obs.Gauge
	tr     *tracer
	parent string
	total  int64
}

// timed runs one checkpoint write inside a span and adds its size.
func (m *ckptMeter) timed(fn func()) {
	m.tr.do("checkpoint.write", m.parent, fn)
	m.total += m.bytes.Value()
}

// runUsage runs the usage study at the given scale into workDir and returns
// its report. With a non-nil tracer it also fills the per-layer metrics; the
// work done is the same either way.
func runUsage(scale float64, seed int64, workDir string, tr *tracer) (*runReport, error) {
	t0 := time.Now()
	reg := obs.NewRegistry()

	endGen := tr.start("workload.generate", "")
	pop := workload.Generate(workload.Config{Seed: seed, Scale: scale, Workers: usageWorkers})
	resolver := dnssim.NewResolver()
	resolver.Instrument(reg)
	endGen()
	setup := time.Since(t0)

	res := &core.Results{
		Config:     core.Config{Seed: seed, Scale: scale, Workers: usageWorkers},
		Population: pop,
		Metrics:    reg,
	}
	runID := res.RunID()
	mgr := checkpoint.NewManager(checkpoint.Dir(workDir, runID), runID, seed, usageWorkers, reg, obs.NewEventLog())
	cm := &ckptMeter{bytes: reg.Gauge("checkpoint_last_bytes"), tr: tr, parent: "identify"}

	endIdentify := tr.start("identify", "")
	cm.timed(func() { mgr.StageDone("substrate", nil, nil) })
	ck := &workload.EmitCheckpoint{
		Interval: usageCkptEvery,
		Snapshot: func(progress []int64, shards []*pdns.Aggregator, rows int64) error {
			cm.timed(func() { mgr.SaveEmission(progress, shards, rows) })
			return nil
		},
	}
	cm.parent = "pdns.aggregate"
	agg, layers, err := aggregate(tr, "identify", func() (*pdns.Aggregate, error) {
		return workload.AggregateParallelCkpt(context.Background(), pop, resolver, nil, usageWorkers, reg, ck, nil)
	})
	if err != nil {
		return nil, err
	}
	cm.parent = "identify"
	cm.timed(func() { mgr.StageDone("identify", agg, nil) })
	endIdentify()

	var deleted int
	tr.do("analysis", "", func() {
		deleted = workload.MarkDeleted(pop, resolver)
		perFn := agg.PerFunctionStats()
		res.Aggregate = agg
		res.Frequency = analysis.Frequency(perFn)
		res.Lifespan = analysis.Lifespan(perFn, workload.Window())
	})
	artifacts := map[string]string{}
	tr.do("report.render", "", func() {
		artifacts["table2.txt"] = runs.Fingerprint(res.RenderTable2())
		artifacts["fig3.txt"] = runs.Fingerprint(res.RenderFigure3())
		artifacts["fig4.txt"] = runs.Fingerprint(res.RenderFigure4())
		artifacts["fig5.txt"] = runs.Fingerprint(res.RenderFigure5())
	})
	wall := time.Since(t0)

	counts := reg.Snapshot().Counters
	rep := &runReport{
		WallS:        wall.Seconds(),
		SetupS:       setup.Seconds(),
		Fingerprints: artifacts,
		Counts: map[string]int64{
			"functions":         int64(len(pop.Functions)),
			"records":           counts["pdns_records_scanned_total"],
			"matched":           counts["pdns_records_matched_total"],
			"dropped":           counts["pdns_records_dropped_total"],
			"domains":           int64(agg.TotalDomains()),
			"deleted":           int64(deleted),
			"checkpoint_writes": counts["checkpoint_write_total"],
		},
	}
	if tr != nil {
		layers["workload.generate_s"] = tr.sum("workload.generate", false)
		addCheckpointLayers(layers, tr, counts, cm.total)
		rep.Layers = layers
	}
	return rep, nil
}

// aggregate runs the PDNS emission+aggregation call inside a span and, when
// traced, measures its time, CPU and allocations per record.
func aggregate(tr *tracer, parent string, call func() (*pdns.Aggregate, error)) (*pdns.Aggregate, map[string]float64, error) {
	var alloc *allocDelta
	if tr != nil {
		alloc = startAlloc()
	}
	end := tr.start("pdns.aggregate", parent)
	agg, err := call()
	end()
	if err != nil || tr == nil {
		return agg, nil, err
	}
	bytes, objects := alloc.stop()
	records := float64(agg.Scanned)
	secs := tr.sum("pdns.aggregate", false)
	return agg, map[string]float64{
		"pdns.aggregate_s":            secs,
		"pdns.aggregate_cpu_s":        tr.sum("pdns.aggregate", true),
		"pdns.ns_per_record":          ratio(secs*1e9, records),
		"pdns.alloc_bytes_per_record": ratio(bytes, records),
		"pdns.allocs_per_record":      ratio(objects, records),
	}, nil
}

// addCheckpointLayers fills the checkpoint and PDNS registry counts.
func addCheckpointLayers(layers map[string]float64, tr *tracer, counts map[string]int64, bytes int64) {
	layers["pdns.records"] = float64(counts["pdns_records_scanned_total"])
	layers["pdns.dropped"] = float64(counts["pdns_records_dropped_total"])
	layers["checkpoint.writes"] = float64(counts["checkpoint_write_total"])
	layers["checkpoint.bytes"] = float64(bytes)
	layers["checkpoint.write_s"] = tr.sum("checkpoint.write", false)
	layers["checkpoint.stall_share"] = ratio(layers["checkpoint.write_s"], layers["pdns.aggregate_s"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
