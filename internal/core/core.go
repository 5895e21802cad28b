// Package core orchestrates the paper's end-to-end measurement pipeline:
//
//	identify (PDNS regex filter + aggregation, §3.2)
//	→ probe (HTTPS-first parameter-free GETs, §3.3)
//	→ sanitise (sensitive-data scan + salted-MD5 anonymisation, §3.4/App. A)
//	→ cluster (TF-IDF + average-linkage agglomerative clustering, §3.4)
//	→ classify (four abuse scenarios / eight cases, §5; C2 via fingerprints)
//	→ assess (threat-intelligence coverage, §5.5)
//
// Because the study's inputs are gated, the pipeline runs against the
// synthetic substrates of internal/workload, internal/dnssim, and
// internal/faas — but every stage consumes only the interfaces a production
// deployment would (PDNS records, HTTP endpoints, TCP sockets), so the
// pipeline code itself is substrate-agnostic.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/checkpoint"
	"repro/internal/content"
	"repro/internal/disclosure"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/prof"
	"repro/internal/providers"
	"repro/internal/runs"
	"repro/internal/secrets"
	"repro/internal/ti"
	"repro/internal/workload"
)

// Config parameterises one pipeline run.
type Config struct {
	// Seed and Scale configure the synthetic substrate (see workload).
	Seed  int64
	Scale float64
	// CacheModel routes invocation counts through the resolver-cache model.
	CacheModel bool

	// Workers bounds the CPU-bound fan-out: substrate generation, PDNS
	// emission+aggregation, sanitisation, and abuse classification all
	// shard across this many goroutines (<= 0 selects GOMAXPROCS). Results
	// are bit-identical for every value — parallelism only buys wall-clock
	// time, never determinism.
	Workers int

	// ClusterThreshold is the dendrogram cut distance (paper: 0.1).
	ClusterThreshold float64
	// MaxClusterDocs caps the number of documents clustered per content
	// type (clustering is O(n²) in memory). 0 selects the default cap of
	// 4000; a negative value disables the cap entirely.
	MaxClusterDocs int

	// ProbeConcurrency bounds in-flight probes; ProbeTimeout bounds each
	// request (the simulation shortens the paper's 60s).
	ProbeConcurrency int
	ProbeTimeout     time.Duration

	// Chaos selects the fault-injection profile for the run. The zero
	// profile defers to the SCF_CHAOS environment variable (so `make
	// chaos` exercises the whole suite); fault.None() disables injection
	// explicitly. A profile without a pinned seed inherits Seed, so fault
	// schedules are as reproducible as the substrate itself.
	Chaos fault.Profile
	// ProbeRetries is how many extra attempts each probe scheme gets after
	// a connection-class failure. 0 selects the default: 2 under an
	// enabled chaos profile, none otherwise (keeping chaos-free runs
	// byte-identical to the seed behavior).
	ProbeRetries int
	// ProbeRetryBackoff is the base backoff before a probe retry; defaults
	// to ProbeTimeout/20 so a full retry ladder stays well inside a
	// handful of probe budgets.
	ProbeRetryBackoff time.Duration
	// BreakerThreshold is how many consecutive endpoint failures open a
	// provider's probe circuit. 0 selects the default (50 under chaos,
	// disabled otherwise); negative disables the breaker outright.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rests before a half-open
	// trial; defaults to 5×ProbeTimeout.
	BreakerCooldown time.Duration

	// C2Concurrency bounds concurrent fingerprint scans; C2Timeout bounds
	// each probe connection (stalling unreachable hosts dominate sweep
	// time, so this defaults shorter than ProbeTimeout).
	C2Concurrency int
	C2Timeout     time.Duration
	// SkipC2Scan skips the fingerprint sweep entirely.
	SkipC2Scan bool

	// Metrics, when non-nil, receives every substrate's live telemetry
	// (probe latencies, C2 sweep progress, resolver cache hits, cold/warm
	// starts, PDNS throughput) and is snapshotted into the run manifest.
	// Nil creates a private registry so manifests are always complete.
	Metrics *obs.Registry

	// ResourceInterval enables the runtime resource sampler: every interval
	// the run snapshots heap in-use, cumulative allocations, GC pauses,
	// goroutine count, and process RSS, publishing gauges, emitting
	// EventResource records, and accumulating per-stage high-water marks
	// into Results.Resources. Zero disables sampling. Deliberately NOT part
	// of configMeta: sampling observes a run, it does not change one, so
	// toggling it must not move the run ID or any golden fingerprint.
	ResourceInterval time.Duration

	// Profile enables the continuous-profiling capture manager: one CPU
	// profile spans the whole run (samples attributed to stages and shards
	// by runtime/pprof labels), and heap/allocs/block/mutex snapshots are
	// taken at every stage boundary, all landing under profiles/ on the
	// machine-varying side of the run archive. Like ResourceInterval it is
	// deliberately NOT part of configMeta: profiling observes a run, it
	// does not change one, so toggling it must not move the run ID or any
	// golden fingerprint.
	Profile bool

	// TimelineInterval enables the windowed-telemetry recorder: every
	// interval the run closes one timeline window — registry deltas,
	// per-window histogram quantiles, stage annotations, health breaches,
	// resource peaks, anomaly markers — appended to timeline.jsonl on the
	// machine-varying side of the run archive (and streamed to /dash when
	// the obs endpoint is up). Zero disables recording. Like
	// ResourceInterval it is deliberately NOT part of configMeta: the
	// timeline observes a run, it does not change one, so toggling it must
	// not move the run ID or any golden fingerprint.
	TimelineInterval time.Duration
	// Timeline, when non-nil, is a pre-built recorder to use instead of
	// constructing one from TimelineInterval — cmd/scfpipe creates it
	// up front so the live dashboard can subscribe before the run starts.
	// The run still owns its lifecycle (Start/Stop).
	Timeline *timeline.Recorder

	// CheckpointDir enables durable checkpointing: versioned snapshots of
	// pipeline progress land under <dir>/<run-id>/checkpoints — written
	// atomically at every stage boundary and, during PDNS emission, every
	// CheckpointInterval emitted rows (<= 0 checkpoints at boundaries and
	// cancellation only). Empty disables checkpointing entirely. Resume
	// restores the newest valid checkpoint for this config's run ID and
	// skips the covered work; it requires CheckpointDir. Like
	// ResourceInterval, all three are deliberately NOT part of configMeta:
	// they change how a run survives interruption, not what it measures, so
	// toggling them must never move the run ID or any golden fingerprint —
	// and the crashing and resuming invocations of one run must share an ID.
	CheckpointDir      string
	CheckpointInterval int64
	Resume             bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ClusterThreshold <= 0 {
		c.ClusterThreshold = 0.1
	}
	if c.ProbeConcurrency <= 0 {
		c.ProbeConcurrency = 32
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.C2Concurrency <= 0 {
		c.C2Concurrency = 32
	}
	if c.C2Timeout <= 0 {
		c.C2Timeout = c.ProbeTimeout / 2
		if c.C2Timeout > time.Second {
			c.C2Timeout = time.Second
		}
	}
	if c.MaxClusterDocs == 0 {
		// 0 is "use the default cap"; negative survives as "no cap".
		c.MaxClusterDocs = 4000
	}
	return c
}

// Results carries every artifact of a pipeline run; the report renderers
// and benchmarks read from here.
type Results struct {
	Config     Config
	Population *workload.Population

	// Identification & usage analysis.
	Aggregate *pdns.Aggregate
	Frequency analysis.FrequencyStats
	Lifespan  analysis.LifespanStats

	// Active probing.
	ProbeResults []probe.Result
	ProbeStats   probe.Stats

	// Content analysis.
	SecretsCensus  secrets.Census
	TypeCounts     map[content.Type]int
	ClustersByType map[content.Type]int
	TotalClusters  int
	ContentRich    int

	// Abuse.
	AbuseReport  *abuse.Report
	Verdicts     map[string][]abuse.Verdict
	ResaleGroups []abuse.Group
	C2Detections []c2.Detection

	// Defence gap.
	TICoverage ti.Coverage

	// Responsible disclosure packages, per affected provider (§5.5).
	Disclosures []*disclosure.Report

	// Observability: the run's stage trace, the metrics registry every
	// substrate reported into, and the flattened stage records (also
	// available live over -metrics-addr while the run executes).
	Trace   *obs.Trace
	Metrics *obs.Registry
	Stages  []obs.SpanRecord

	// Degradations is the per-stage record of what the run absorbed
	// instead of aborting on — injected faults survived, probes retried,
	// feed records quarantined, breakers opened. Empty for a clean run.
	Degradations []obs.Degradation

	// Health is the final evaluation of the run's SLO rules, one row per
	// (rule, provider/shard group); rules that fired mid-run stay fired.
	// Like the metrics it derives from, it lives on the machine-varying
	// side of the run archive, never in the deterministic summary.
	Health []health.Result

	// Resources is the per-stage runtime high-water-mark table the resource
	// sampler collected (empty when Config.ResourceInterval is zero). Also
	// strictly machine-varying: archived in timings.json, never summary.
	Resources []obs.ResourceStats

	// Profiles is everything the continuous-profiling capturer recorded
	// (empty unless Config.Profile): the run-wide CPU profile plus the
	// stage-boundary heap/allocs/block/mutex snapshots. Machine-varying by
	// nature — archived under profiles/, never fingerprinted.
	Profiles []prof.Snapshot

	// Recovery is the run's checkpoint/resume lineage, nil when the run did
	// not checkpoint. Archived in timings.json (machine-varying side):
	// whether a run was interrupted must never move a golden fingerprint.
	Recovery *runs.RecoveryInfo

	// Timeline is the run's windowed-telemetry sequence (empty unless
	// Config.TimelineInterval or Config.Timeline): one window per interval
	// with metric deltas, stage/health annotations, resource peaks, and
	// anomaly markers. Machine-varying — archived as timeline.jsonl, never
	// fingerprinted.
	Timeline []timeline.Window

	Elapsed time.Duration
}

// RunID returns the archive slot this run's configuration hashes to — the
// identity a checkpoint embeds and a resume validates against.
func (r *Results) RunID() string {
	return runs.RunID(runs.ConfigHash(r.configMeta()))
}

// configMeta flattens the run's configuration to the flat fact map shared
// by the manifest and the run archive. Only configuration belongs here —
// outcomes like elapsed time would poison the archive's config hash.
func (r *Results) configMeta() map[string]string {
	return map[string]string{
		"seed":              fmt.Sprint(r.Config.Seed),
		"scale":             fmt.Sprintf("%g", r.Config.Scale),
		"workers":           fmt.Sprint(r.Config.Workers),
		"cache_model":       fmt.Sprint(r.Config.CacheModel),
		"cluster_threshold": fmt.Sprintf("%g", r.Config.ClusterThreshold),
		"max_cluster_docs":  fmt.Sprint(r.Config.MaxClusterDocs),
		"probe_concurrency": fmt.Sprint(r.Config.ProbeConcurrency),
		"probe_timeout":     r.Config.ProbeTimeout.String(),
		"c2_concurrency":    fmt.Sprint(r.Config.C2Concurrency),
		"c2_timeout":        r.Config.C2Timeout.String(),
		"skip_c2_scan":      fmt.Sprint(r.Config.SkipC2Scan),
		"chaos":             r.Config.Chaos.String(),
	}
}

// Manifest assembles the run's machine-readable provenance record: config,
// per-stage wall/CPU time, and the final metric snapshot.
func (r *Results) Manifest(tool string) *obs.Manifest {
	meta := r.configMeta()
	meta["elapsed"] = r.Elapsed.String()
	m := obs.BuildManifest(tool, r.Trace, r.Metrics, meta)
	m.Degradations = r.Degradations
	return m
}

// Run executes the full pipeline with a background context.
func Run(cfg Config) (*Results, error) { return RunContext(context.Background(), cfg) }

// RunContext executes the full pipeline under ctx. Cancelling the context
// aborts the probe and C2 sweeps cleanly; the partial Results accumulated so
// far are returned alongside the context error, with the cancellation
// recorded on the interrupted stage's span, so a manifest can still be
// written for an aborted run.
//
// Every stage is traced: if ctx carries an obs.Trace the stage spans attach
// there, otherwise a fresh trace is created. Either way the trace and the
// metrics registry end up on the Results.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("core: Resume requires CheckpointDir")
	}
	// Resolve the chaos profile: an unset profile defers to SCF_CHAOS, and
	// a profile without a pinned seed inherits the substrate seed so fault
	// schedules reproduce exactly like the population does.
	if cfg.Chaos.IsZero() {
		prof, err := fault.FromEnv()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		cfg.Chaos = prof
	}
	cfg.Chaos = cfg.Chaos.WithSeed(cfg.Seed)
	chaos := cfg.Chaos.Enabled()
	if chaos && cfg.ProbeRetries == 0 {
		cfg.ProbeRetries = 2
	}
	if cfg.ProbeRetries < 0 {
		cfg.ProbeRetries = 0
	}
	if cfg.ProbeRetryBackoff <= 0 {
		cfg.ProbeRetryBackoff = cfg.ProbeTimeout / 20
	}
	if cfg.BreakerThreshold == 0 && chaos {
		cfg.BreakerThreshold = 50
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * cfg.ProbeTimeout
	}
	start := time.Now()
	res := &Results{Config: cfg}

	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace()
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	res.Trace, res.Metrics = tr, reg

	injector := fault.New(cfg.Chaos)
	injector.Instrument(reg)
	// Latency spikes must outlast the probe client's timeout so they
	// classify as timeouts rather than hanging the sweep.
	injector.SetSpikeDelay(3 * cfg.ProbeTimeout)

	elog := obs.EventLogFrom(ctx)

	// ---- Checkpoint/resume wiring. ----
	// The run ID (a pure function of config) is the identity every snapshot
	// embeds; a checkpoint written under a different config resolves to a
	// different ID and can never be resumed into this run.
	runID := res.RunID()
	var mgr *checkpoint.Manager
	var resumed *checkpoint.Snapshot
	if cfg.CheckpointDir != "" {
		if cfg.Resume {
			snap, warns, lerr := checkpoint.Latest(cfg.CheckpointDir, runID)
			for _, warn := range warns {
				elog.Emit(obs.EventNote, "checkpoint-warning", obs.Attr{Key: "detail", Value: warn})
			}
			switch {
			case lerr == nil:
				// Workers is in configMeta, so a mismatch here means a
				// hand-tampered checkpoint; refuse rather than mis-shard.
				if snap.Header.Workers != cfg.Workers {
					return nil, fmt.Errorf("core: resume: checkpoint written at workers=%d, run has workers=%d", snap.Header.Workers, cfg.Workers)
				}
				resumed = snap
			case errors.Is(lerr, checkpoint.ErrNoCheckpoint):
				// A crash before the first boundary left nothing durable;
				// a fresh start is exactly equivalent to resuming it.
				elog.Emit(obs.EventNote, "resume-fresh", obs.Attr{Key: "detail", Value: lerr.Error()})
			default:
				return nil, fmt.Errorf("core: resume: %w", lerr)
			}
		}
		mgr = checkpoint.NewManager(checkpoint.Dir(cfg.CheckpointDir, runID), runID, cfg.Seed, cfg.Workers, reg, elog)
		// Skipped stages never replay their degradation counters, so the
		// checkpoints carry them for collectDegradations.
		for _, dm := range degradationMetrics {
			mgr.PersistCounters(dm.metric)
		}
		if resumed != nil {
			mgr.Restore(resumed)
			reg.Counter("recovery_resumed_total").Inc()
			elog.Emit(obs.EventNote, "recovery",
				obs.Attr{Key: "seq", Value: fmt.Sprint(resumed.Header.Seq)},
				obs.Attr{Key: "stage", Value: resumed.Header.Stage})
		}
	}

	// The SLO monitor samples the registry on an interval for the whole run;
	// Finalize adds the cumulative whole-run evaluation, so short runs are
	// covered even when no sampling tick fires.
	mon := health.NewMonitor(reg, elog, health.DefaultRules(cfg.ProbeTimeout))
	mon.Start()
	// The resource sampler runs for the whole pipeline alongside the SLO
	// monitor; startStage tells it which stage each sample belongs to, so
	// the archive can say "the heap peaked in identify, not probe". A zero
	// interval yields the nil no-op sampler.
	sampler := obs.NewResourceSampler(reg, elog, cfg.ResourceInterval)
	sampler.Start()
	// The timeline recorder windows the registry on its own clock for the
	// whole run. Health firings are stamped with (and annotated onto) the
	// window they happened in; resource peaks drain into each window. A
	// nil recorder (interval 0, none pre-built) no-ops throughout.
	rec := cfg.Timeline
	if rec == nil {
		rec = timeline.NewRecorder(reg, timeline.Options{Interval: cfg.TimelineInterval})
	}
	rec.SetPeakFn(sampler.TakePeaks)
	if rec != nil {
		mon.SetWindowIndex(rec.WindowIndex)
		mon.SetOnFiring(func(hr health.Result) {
			rec.NoteBreach(timeline.Breach{Rule: hr.Rule, Group: hr.Group, Value: hr.Value, Max: hr.Max})
		})
	}
	rec.Start()
	// The continuous-profiling capturer mirrors the sampler's lifecycle: it
	// observes the run from the side, so a capture failure degrades to an
	// event-log note, never a run error.
	capturer := prof.NewCapturer(cfg.Profile)
	if perr := capturer.Start(); perr != nil {
		elog.Emit(obs.EventNote, "profile-error", obs.Attr{Key: "detail", Value: perr.Error()})
	}
	startStage := func(ctx context.Context, name string) (context.Context, *obs.Span) {
		// The seeded crashpoint fires here when it targets this boundary:
		// the abort lands after the previous stage's checkpoint and before
		// any of this stage's work, exactly like a power loss between them.
		injector.CrashAtStage(name)
		sampler.SetStage(name)
		rec.SetStage(name)
		capturer.StageBoundary(name)
		// Stage attribution for CPU profiles rides on pprof labels: the
		// orchestration goroutine is labeled here, and every goroutine a
		// stage spawns (probe sweep, parallelFor, emission shards) inherits
		// the label at spawn. Labels are set whether or not this run
		// captures, so the live /debug/pprof endpoints see them too.
		ctx = pprof.WithLabels(ctx, pprof.Labels("stage", name))
		pprof.SetGoroutineLabels(ctx)
		return obs.StartSpan(ctx, name)
	}
	defer func() {
		if mgr != nil {
			li := mgr.Info()
			res.Recovery = &runs.RecoveryInfo{
				Resumed: li.Resumed, ResumedFrom: li.ResumedFrom, ResumedStage: li.ResumedStage,
				Checkpoints: li.Writes, LastSeq: li.LastSeq, LastStage: li.LastStage,
			}
		}
		res.Resources = sampler.Stop()
		// The recorder stops after the sampler (so the final resource
		// sample lands in the tail window) and before the health monitor
		// finalizes (so post-run cumulative firings cannot be attributed
		// to a window that no longer exists).
		res.Timeline = rec.Stop()
		res.Profiles = capturer.Stop()
		// Drop this goroutine's stage label so a later run on the same
		// goroutine (tests that run several pipelines) starts unlabeled.
		pprof.SetGoroutineLabels(context.Background())
		res.Stages = tr.Records()
		res.Health = mon.Finalize()
		res.Degradations = collectDegradations(reg)
		res.Elapsed = time.Since(start)
		// Close the event log's story: what the run absorbed, then the
		// final metric state. Stage boundaries were logged by the spans.
		for _, d := range res.Degradations {
			elog.EmitDegradation(d)
		}
		elog.EmitMetrics("final", reg)
	}()

	// ---- Substrate: population, DNS, platform, edge servers. ----
	_, sp := startStage(ctx, "substrate")
	pop := workload.Generate(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale, CacheModel: cfg.CacheModel, Workers: cfg.Workers})
	res.Population = pop
	resolver := dnssim.NewResolver()
	resolver.Instrument(reg)

	db := c2.DefaultDB()
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, db)
	gw := faas.NewGateway(platform)
	gw.Instrument(reg)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	servers, err := startServers(gw)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	defer servers.Close()
	sp.SetAttr("functions", len(pop.Functions))
	sp.End()
	// The substrate is regenerated from the seed on every invocation
	// (cheaper than serialising it); its boundary checkpoint just anchors
	// the ledger.
	mgr.StageDone("substrate", nil, nil)

	// ---- Stage 1: PDNS identification & aggregation (§3.2, §4). ----
	// Emission and aggregation shard by FQDN across cfg.Workers: each
	// worker feeds its own aggregator from its own per-function RNG
	// streams, and the shard aggregates merge into the exact result the
	// serial pass produces (see workload.AggregateParallelCkpt).
	sctx, sp := startStage(ctx, "identify")
	w := workload.Window()
	// Under chaos a deterministic fraction of the feed is corrupted before
	// aggregation; mangled records fail validation inside the aggregator
	// and count as dropped, like a real feed's garbage rows.
	var mutate []func(*pdns.Record)
	if cfg.Chaos.FeedCorrupt > 0 {
		mutate = append(mutate, func(r *pdns.Record) { injector.CorruptRecord(r) })
	}
	if resumed.HasStage("identify") && resumed.Aggregate != nil {
		// The checkpoint carries the finished aggregate; nothing to emit.
		res.Aggregate = resumed.Aggregate
		sp.SetAttr("resumed", true)
	} else {
		var ck *workload.EmitCheckpoint
		if mgr != nil || injector.CrashScheduled() {
			ck = &workload.EmitCheckpoint{Interval: cfg.CheckpointInterval}
			if mgr != nil {
				ck.Snapshot = func(progress []int64, shards []*pdns.Aggregator, rows int64) error {
					mgr.SaveEmission(progress, shards, rows)
					return nil
				}
			}
			if injector.CrashScheduled() {
				ck.OnRow = func(n int64) { injector.CrashAtRow("identify", n) }
			}
		}
		var rs *workload.EmitResume
		if resumed != nil && resumed.Emission != nil {
			// Mid-emission snapshot: restored shard aggregators continue
			// from progress[i] functions; the skipped prefix never replays
			// because every function owns its own RNG stream.
			rs = &workload.EmitResume{
				Rows:     resumed.Emission.Rows,
				Progress: resumed.Emission.Progress,
				Shards:   resumed.Emission.Shards,
			}
		}
		agg, err := workload.AggregateParallelCkpt(sctx, pop, resolver, nil, cfg.Workers, reg, ck, rs, mutate...)
		if err != nil {
			err = fmt.Errorf("core: pdns: %w", err)
			sp.SetError(err)
			sp.End()
			return res, err
		}
		res.Aggregate = agg
	}
	// Deletions take effect only now: the PDNS history above was recorded
	// while the functions were alive, but the probing phase sees deleted
	// Tencent functions as NXDOMAIN (§4.4).
	workload.MarkDeleted(pop, resolver)
	perFn := res.Aggregate.PerFunctionStats()
	res.Frequency = analysis.Frequency(perFn)
	res.Lifespan = analysis.Lifespan(perFn, w)
	sp.SetAttr("records", res.Aggregate.Scanned)
	sp.SetAttr("matched", res.Aggregate.Matched)
	sp.SetAttr("domains", res.Aggregate.TotalDomains())
	sp.SetAttr("workers", cfg.Workers)
	sp.End()
	mgr.StageDone("identify", res.Aggregate, nil)

	// ---- Stage 2: active probing (§3.3). ----
	targets := pop.ProbeTargets()
	sctx, sp = startStage(ctx, "probe")
	if resumed.HasStage("probe") && resumed.Probe != nil {
		// Probe results (bodies included) ride in the checkpoint, so the
		// content stages downstream see exactly what the crashed run saw.
		res.ProbeResults = resumed.Probe.Results
		res.ProbeStats = resumed.Probe.Stats
		sp.SetAttr("resumed", true)
		sp.SetAttr("reachable", res.ProbeStats.Reachable)
		sp.End()
	} else if err := runProbeStage(sctx, sp, cfg, res, pop, targets, resolver, servers, injector, reg); err != nil {
		return res, err
	}
	mgr.StageDone("probe", nil, &checkpoint.ProbeState{Results: res.ProbeResults, Stats: res.ProbeStats})

	// ---- Stage 3: sanitisation (§3.4, Appendix A). ----
	// The per-response scan+anonymise work is pure once the salt is fixed,
	// so it fans out across cfg.Workers; the fold back into census, type
	// counts, and the document corpus runs serially in probe-result order,
	// keeping the stage bit-identical for every worker count.
	_, sp = startStage(ctx, "sanitise")
	anonRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5a17))
	anon := secrets.NewAnonymizer(anonRng)
	res.TypeCounts = map[content.Type]int{}
	byFQDN := fqdnIndex(pop)
	type sanitised struct {
		doc      abuse.Document
		findings []secrets.Finding
		ct       content.Type
		keep     bool // reachable: contributes a document
		rich     bool // 200 + body: contributes to the content corpus
	}
	cleaned := make([]sanitised, len(res.ProbeResults))
	parallelFor(len(res.ProbeResults), cfg.Workers, func(i int) {
		r := &res.ProbeResults[i]
		if !r.Reachable {
			return
		}
		out := &cleaned[i]
		out.keep = true
		body := string(r.Body)
		if r.Status == 200 && len(body) > 0 {
			clean, findings := anon.Sanitize(body)
			body = clean
			out.findings = findings
			out.ct = content.DetectType([]byte(body), r.ContentType)
			out.rich = true
		}
		out.doc = abuse.Document{
			FQDN:        r.FQDN,
			Status:      r.Status,
			ContentType: r.ContentType,
			Body:        body,
			Location:    r.Location,
		}
		if f := byFQDN[r.FQDN]; f != nil {
			out.doc.Provider = f.Provider.String()
			out.doc.Region = f.Region
			out.doc.ChinaRegion = providers.ChinaRegion(f.Region)
		}
	})
	docs := make([]abuse.Document, 0, len(res.ProbeResults))
	var contentDocs []string
	var contentTypes []content.Type
	for i := range cleaned {
		c := &cleaned[i]
		if !c.keep {
			continue
		}
		if c.rich {
			res.SecretsCensus.Add(c.findings)
			res.ContentRich++
			res.TypeCounts[c.ct]++
			contentDocs = append(contentDocs, c.doc.Body)
			contentTypes = append(contentTypes, c.ct)
		}
		docs = append(docs, c.doc)
	}
	sp.SetAttr("docs", len(docs))
	sp.SetAttr("content_rich", res.ContentRich)
	sp.End()
	// The stages from here on are cheap, deterministic recomputations of
	// earlier state, so their checkpoints carry only the ledger: a resume
	// that lands past probe replays them rather than serialising their
	// outputs.
	mgr.StageDone("sanitise", nil, nil)

	// ---- Stage 4: clustering (§3.4). ----
	_, sp = startStage(ctx, "cluster")
	res.ClustersByType = clusterByType(contentDocs, contentTypes, cfg)
	for _, n := range res.ClustersByType {
		res.TotalClusters += n
	}
	sp.SetAttr("clusters", res.TotalClusters)
	sp.End()
	mgr.StageDone("cluster", nil, nil)

	// ---- Stage 5: abuse classification (§5). ----
	// Classify is pure per document, so the scan fans out; the verdict map
	// is folded serially in document order.
	sctx, sp = startStage(ctx, "classify")
	res.Verdicts = map[string][]abuse.Verdict{}
	verdicts := make([][]abuse.Verdict, len(docs))
	parallelFor(len(docs), cfg.Workers, func(i int) {
		verdicts[i] = abuse.Classify(&docs[i])
	})
	for i, vs := range verdicts {
		if len(vs) > 0 {
			res.Verdicts[docs[i].FQDN] = vs
		}
	}
	if !cfg.SkipC2Scan {
		// The paper fingerprinted every domain; hosts whose HTTP probe
		// already timed out or failed DNS are skipped, because
		// re-timing-out on 52 probes per host only burns wall clock.
		var c2Targets []string
		for i := range res.ProbeResults {
			r := &res.ProbeResults[i]
			if r.Reachable || r.Failure == probe.FailConn {
				c2Targets = append(c2Targets, r.FQDN)
			}
		}
		cctx, csp := obs.StartSpan(sctx, "c2-sweep")
		res.C2Detections = scanC2(cctx, cfg, servers, db, reg, c2Targets)
		csp.SetAttr("targets", len(c2Targets))
		csp.SetAttr("detections", len(res.C2Detections))
		csp.SetError(cctx.Err())
		csp.End()
		for _, d := range res.C2Detections {
			if !hasCase(res.Verdicts[d.Host], abuse.CaseC2) {
				res.Verdicts[d.Host] = append(res.Verdicts[d.Host],
					abuse.Verdict{FQDN: d.Host, Case: abuse.CaseC2, Evidence: []string{d.Fingerprint}})
			}
		}
	}
	requests := map[string]int64{}
	for fqdn, fs := range res.Aggregate.ByFQDN {
		requests[fqdn] = fs.TotalRequest
	}
	res.AbuseReport = abuse.NewReport(res.Verdicts, requests, res.ContentRich)
	var allVerdicts []abuse.Verdict
	for _, vs := range res.Verdicts {
		allVerdicts = append(allVerdicts, vs...)
	}
	res.ResaleGroups = abuse.GroupByContact(allVerdicts)
	sp.SetAttr("abused", res.AbuseReport.TotalFunctions())
	sp.SetError(sctx.Err())
	sp.End()
	if err := sctx.Err(); err != nil {
		return res, fmt.Errorf("core: c2 sweep aborted: %w", err)
	}
	mgr.StageDone("classify", nil, nil)

	// ---- Stage 6: threat-intelligence coverage (§5.5). ----
	_, sp = startStage(ctx, "assess")
	oracle := ti.NewOracle()
	seedTI(oracle, res.C2Detections)
	abused := make([]string, 0, len(res.AbuseReport.Assigned))
	for fqdn := range res.AbuseReport.Assigned {
		abused = append(abused, fqdn)
	}
	res.TICoverage = oracle.Assess(abused)
	sp.SetAttr("flagged", res.TICoverage.Flagged)
	sp.End()
	mgr.StageDone("assess", nil, nil)

	// ---- Stage 7: responsible disclosure (§5.5, Appendix A). ----
	_, sp = startStage(ctx, "disclosure")
	res.Disclosures = disclosure.Build(res.AbuseReport, res.Verdicts, requests)
	disclosure.SimulateVendorResponses(res.Disclosures, workload.DeployWindowClock()())
	sp.SetAttr("reports", len(res.Disclosures))
	sp.End()
	mgr.StageDone("disclosure", nil, nil)

	return res, nil
}

// runProbeStage executes the active-probing sweep (§3.3) into res. It owns
// the stage span's closure; a cancelled context is returned as the stage
// error after the span ends.
func runProbeStage(sctx context.Context, sp *obs.Span, cfg Config, res *Results, pop *workload.Population, targets []string, resolver *dnssim.Resolver, servers *gatewayServers, injector *fault.Injector, reg *obs.Registry) error {
	httpOnly := map[string]bool{}
	for _, f := range pop.Functions {
		if f.HTTPOnly {
			httpOnly[f.FQDN] = true
		}
	}
	var breaker probe.Breaker
	if cfg.BreakerThreshold > 0 {
		br := fault.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		br.Instrument(reg)
		breaker = br
	}
	matcher := providers.NewMatcher(nil)
	prober := probe.New(probe.Config{
		Timeout:      cfg.ProbeTimeout,
		Concurrency:  cfg.ProbeConcurrency,
		Retries:      cfg.ProbeRetries,
		RetryBackoff: cfg.ProbeRetryBackoff,
		Breaker:      breaker,
		BreakerKey: func(fqdn string) string {
			// Circuit per provider: one cloud's outage must not stop the
			// sweep of the other eight.
			if info, ok := matcher.Identify(fqdn); ok {
				return info.Name
			}
			return fqdn
		},
		Provider: func(fqdn string) string {
			if info, ok := matcher.Identify(fqdn); ok {
				return info.Name
			}
			return "unknown"
		},
		Metrics: reg,
		Resolve: injector.WrapResolve(func(fqdn string) error {
			rng := rand.New(rand.NewSource(int64(pdns.HashFQDN(fqdn))))
			_, err := resolver.Resolve(fqdn, rng)
			return err
		}),
		DialContext: injector.WrapDial(simDialer(servers, httpOnly)),
	})
	res.ProbeResults = prober.ProbeAll(sctx, targets)
	res.ProbeStats = prober.Stats()
	sp.SetAttr("targets", len(targets))
	sp.SetAttr("reachable", res.ProbeStats.Reachable)
	sp.SetError(sctx.Err())
	sp.End()
	if err := sctx.Err(); err != nil {
		return fmt.Errorf("core: probe sweep aborted: %w", err)
	}
	return nil
}

// degradationMetrics maps the resilience counters to (stage, kind) rows;
// declaration order is the report order.
var degradationMetrics = []struct {
	metric, stage, kind string
}{
	{"fault_corrupt_records_total", "identify", "injected-corrupt-records"},
	{"pdns_reader_quarantined_total", "identify", "quarantined-lines"},
	{"pdns_records_dropped_total", "identify", "dropped-records"},
	{"fault_dns_injected_total", "probe", "injected-dns-failures"},
	{"fault_resets_injected_total", "probe", "injected-resets"},
	{"fault_flaps_injected_total", "probe", "injected-flaps"},
	{"fault_truncations_injected_total", "probe", "injected-truncations"},
	{"fault_latency_injected_total", "probe", "injected-latency-spikes"},
	{"probe_conn_retries_total", "probe", "conn-retries"},
	{"probe_breaker_skips_total", "probe", "breaker-skips"},
	{"fault_breaker_opens_total", "probe", "breaker-opens"},
	{"probe_body_aborts_total", "probe", "body-drain-aborts"},
	// Recovery rows surface in Results.Degradations and the manifest, but
	// BuildArchive filters them out of the deterministic summary: whether a
	// run was interrupted and resumed is machine circumstance, not a change
	// in what it measured (see summaryDegradations).
	{"recovery_resumed_total", "pipeline", "recovery-resumed"},
	{"checkpoint_write_errors_total", "pipeline", "checkpoint-write-errors"},
}

// collectDegradations snapshots the resilience counters into per-stage
// degradation records, keeping only the non-zero ones: a clean run reports
// an empty list, a degraded run reports exactly what it absorbed.
func collectDegradations(reg *obs.Registry) []obs.Degradation {
	snap := reg.Snapshot()
	var out []obs.Degradation
	for _, dm := range degradationMetrics {
		if v := snap.Counters[dm.metric]; v > 0 {
			out = append(out, obs.Degradation{Stage: dm.stage, Kind: dm.kind, Count: v})
		}
	}
	return out
}

// seedTI mirrors Finding 10: threat intelligence knows about (at most) four
// of the C2 relays and nothing else.
func seedTI(oracle *ti.Oracle, ds []c2.Detection) {
	seen := map[string]struct{}{}
	var hosts []string
	for _, d := range ds {
		if _, ok := seen[d.Host]; ok {
			continue
		}
		seen[d.Host] = struct{}{}
		hosts = append(hosts, d.Host)
		if len(hosts) == 4 {
			break
		}
	}
	oracle.Seed(hosts, 2)
}

func hasCase(vs []abuse.Verdict, c abuse.Case) bool {
	for _, v := range vs {
		if v.Case == c {
			return true
		}
	}
	return false
}

func fqdnIndex(pop *workload.Population) map[string]*workload.Function {
	out := make(map[string]*workload.Function, len(pop.Functions))
	for _, f := range pop.Functions {
		out[f.FQDN] = f
	}
	return out
}

// clusterByType clusters sanitised documents within each content type,
// returning per-type cluster counts (paper: 4,512 clusters total).
func clusterByType(docs []string, types []content.Type, cfg Config) map[content.Type]int {
	grouped := map[content.Type][]string{}
	for i, d := range docs {
		grouped[types[i]] = append(grouped[types[i]], d)
	}
	out := map[content.Type]int{}
	for t, ds := range grouped {
		if cfg.MaxClusterDocs > 0 && len(ds) > cfg.MaxClusterDocs {
			ds = ds[:cfg.MaxClusterDocs]
		}
		out[t] = len(content.ClusterDocs(ds, cfg.ClusterThreshold))
	}
	return out
}

// scanC2 sweeps every target with the fingerprint scanner through the plain
// edge listener, bounded by cfg.C2Concurrency. A cancelled ctx stops
// scheduling new hosts and aborts in-flight scans.
func scanC2(ctx context.Context, cfg Config, servers *gatewayServers, db *c2.DB, reg *obs.Registry, targets []string) []c2.Detection {
	scanner := c2.NewScanner(db)
	scanner.Instrument(reg)
	scanner.Timeout = cfg.C2Timeout
	scanner.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, servers.plainAddr)
	}
	var (
		mu  sync.Mutex
		out []c2.Detection
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, cfg.C2Concurrency)
	for _, host := range targets {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(host string) {
			defer wg.Done()
			defer func() { <-sem }()
			ds := scanner.ScanHost(ctx, host)
			if len(ds) > 0 {
				mu.Lock()
				out = append(out, ds...)
				mu.Unlock()
			}
		}(host)
	}
	wg.Wait()
	return out
}

// simDialer routes the prober at the simulated edge: port 443 to the TLS
// listener, everything else to the plain listener. HTTP-only functions
// refuse TLS, and unknown ports refuse outright.
func simDialer(servers *gatewayServers, httpOnly map[string]bool) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		var d net.Dialer
		switch port {
		case "443":
			if httpOnly[strings.ToLower(host)] {
				return nil, fmt.Errorf("connection refused (no TLS listener for %s)", host)
			}
			return d.DialContext(ctx, network, servers.tlsAddr)
		default:
			return d.DialContext(ctx, network, servers.plainAddr)
		}
	}
}

// parallelFor runs fn(i) for i in [0, n) across at most workers goroutines.
// Iterations are strided, not chunked, so uneven per-item cost still
// balances; fn must only write state owned by index i.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
