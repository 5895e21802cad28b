package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/checkpoint"
	"repro/internal/content"
	"repro/internal/core"
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

// pipelineConfig is one pipeline workload: the scfpipe flags of its
// untraced run and the same settings as a core.Config for the traced one.
type pipelineConfig struct {
	scale            float64
	workers          int
	chaos            string
	skipC2           bool
	profile          bool
	timelineInterval time.Duration
	resourceInterval time.Duration
}

// scfpipe's -checkpoint-interval default; both runs checkpoint into the run
// dir the way `make gate` runs the golden config.
const pipelineCkptEvery = 250000

// args are the scfpipe flags for the untraced run.
func (p pipelineConfig) args(seed int64, runDir string) []string {
	a := []string{
		"-seed", fmt.Sprint(seed),
		"-scale", fmt.Sprint(p.scale),
		"-workers", fmt.Sprint(p.workers),
		"-chaos", p.chaos,
		"-run-dir", runDir,
	}
	if p.skipC2 {
		a = append(a, "-skip-c2")
	}
	if p.profile {
		a = append(a, "-profile")
	}
	if p.timelineInterval > 0 {
		a = append(a, "-timeline-interval", p.timelineInterval.String())
	}
	if p.resourceInterval > 0 {
		a = append(a, "-resource-interval", p.resourceInterval.String())
	}
	return a
}

// coreConfig resolves the settings exactly as core.RunContext does after
// its defaults (core.Config.withDefaults and the chaos/retry/breaker
// resolution), so Results.RunID and the archive summary match scfpipe's.
func (p pipelineConfig) coreConfig(seed int64) (core.Config, error) {
	chaos, err := fault.ParseProfile(p.chaos)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Seed:             seed,
		Scale:            p.scale,
		Workers:          p.workers,
		ClusterThreshold: 0.1,
		MaxClusterDocs:   4000,
		ProbeConcurrency: 32,
		ProbeTimeout:     2 * time.Second,
		C2Concurrency:    32,
		C2Timeout:        time.Second,
		SkipC2Scan:       p.skipC2,
		Chaos:            chaos.WithSeed(seed),
	}
	if cfg.Chaos.Enabled() {
		cfg.ProbeRetries = 2
		cfg.BreakerThreshold = 50
	}
	cfg.ProbeRetryBackoff = cfg.ProbeTimeout / 20
	cfg.BreakerCooldown = 5 * cfg.ProbeTimeout
	return cfg, nil
}

// tracedPipeline repeats one scfpipe run through the modules' public
// functions, in core.RunContext's stage order and with its settings,
// recording a span around every layer. Where core's wiring is private the
// code below mirrors internal/core/core.go and servers.go; the comments name
// the function mirrored. It writes the run archive into runDir exactly as
// scfpipe does and reports the archive's fingerprints plus the per-layer
// metrics.
func tracedPipeline(p pipelineConfig, seed int64, runDir string, tr *tracer) (*runReport, error) {
	cfg, err := p.coreConfig(seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	reg := obs.NewRegistry()
	elog := obs.NewEventLog()
	res := &core.Results{Config: cfg, Trace: obs.NewTrace(), Metrics: reg}
	layers := map[string]float64{}

	injector := fault.New(cfg.Chaos)
	injector.Instrument(reg)
	injector.SetSpikeDelay(3 * cfg.ProbeTimeout)

	runID := res.RunID()
	mgr := checkpoint.NewManager(checkpoint.Dir(runDir, runID), runID, cfg.Seed, cfg.Workers, reg, elog)
	cm := &ckptMeter{bytes: reg.Gauge("checkpoint_last_bytes"), tr: tr}

	// Observability loops, as RunContext starts them.
	mon := health.NewMonitor(reg, elog, health.DefaultRules(cfg.ProbeTimeout))
	mon.Start()
	sampler := obs.NewResourceSampler(reg, elog, p.resourceInterval)
	sampler.Start()
	rec := timeline.NewRecorder(reg, timeline.Options{Interval: p.timelineInterval})
	rec.SetPeakFn(sampler.TakePeaks)
	if rec != nil {
		mon.SetWindowIndex(rec.WindowIndex)
		mon.SetOnFiring(func(hr health.Result) {
			rec.NoteBreach(timeline.Breach{Rule: hr.Rule, Group: hr.Group, Value: hr.Value, Max: hr.Max})
		})
	}
	rec.Start()
	capturer := prof.NewCapturer(p.profile)
	if err := capturer.Start(); err != nil {
		return nil, err
	}
	// stage mirrors RunContext's startStage (no crash injection here).
	stage := func(name string) (func(), *obs.Span) {
		tr.do("obs.boundary", name, func() {
			sampler.SetStage(name)
			rec.SetStage(name)
			capturer.StageBoundary(name)
		})
		lctx := pprof.WithLabels(ctx, pprof.Labels("stage", name))
		pprof.SetGoroutineLabels(lctx)
		endSpan := tr.start(name, "")
		_, sp := obs.StartSpan(obs.ContextWithTrace(ctx, res.Trace), name)
		return func() { sp.End(); endSpan() }, sp
	}

	// ---- substrate ----
	end, _ := stage("substrate")
	var (
		pop      *workload.Population
		resolver *dnssim.Resolver
		db       *c2.DB
		gw       *faas.Gateway
	)
	tr.do("workload.generate", "substrate", func() {
		pop = workload.Generate(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale, Workers: cfg.Workers})
		resolver = dnssim.NewResolver()
		resolver.Instrument(reg)
		db = c2.DefaultDB()
		platform := faas.NewPlatform()
		workload.Deploy(pop, platform, db)
		gw = faas.NewGateway(platform)
		gw.Instrument(reg)
		gw.Clock = workload.DeployWindowClock()
		gw.UnreachableDelay = 10 * cfg.ProbeTimeout
	})
	res.Population = pop
	var servers *edge
	tr.do("faas.edge_start", "substrate", func() { servers, err = startEdge(gw) })
	if err != nil {
		return nil, err
	}
	defer servers.Close()
	end()
	cm.parent = "substrate"
	cm.timed(func() { mgr.StageDone("substrate", nil, nil) })

	// ---- identify ----
	end, _ = stage("identify")
	var mutate []func(*pdns.Record)
	if cfg.Chaos.FeedCorrupt > 0 {
		mutate = append(mutate, func(r *pdns.Record) { injector.CorruptRecord(r) })
	}
	cm.parent = "pdns.aggregate"
	ck := &workload.EmitCheckpoint{
		Interval: pipelineCkptEvery,
		Snapshot: func(progress []int64, shards []*pdns.Aggregator, rows int64) error {
			cm.timed(func() { mgr.SaveEmission(progress, shards, rows) })
			return nil
		},
	}
	agg, aggLayers, err := aggregate(tr, "identify", func() (*pdns.Aggregate, error) {
		return workload.AggregateParallelCkpt(ctx, pop, resolver, nil, cfg.Workers, reg, ck, nil, mutate...)
	})
	if err != nil {
		return nil, err
	}
	for k, v := range aggLayers {
		layers[k] = v
	}
	res.Aggregate = agg
	tr.do("analysis", "identify", func() {
		workload.MarkDeleted(pop, resolver)
		perFn := agg.PerFunctionStats()
		res.Frequency = analysis.Frequency(perFn)
		res.Lifespan = analysis.Lifespan(perFn, workload.Window())
	})
	end()
	cm.parent = "identify"
	cm.timed(func() { mgr.StageDone("identify", res.Aggregate, nil) })

	// ---- probe ----
	targets := pop.ProbeTargets()
	end, sp := stage("probe")
	prober := newProber(cfg, pop, resolver, servers, injector, reg)
	alloc := startAlloc()
	tr.do("probe.sweep", "probe", func() {
		res.ProbeResults = prober.ProbeAll(ctx, targets)
		res.ProbeStats = prober.Stats()
	})
	probeBytes, _ := alloc.stop()
	sp.SetAttr("targets", len(targets))
	sp.SetAttr("reachable", res.ProbeStats.Reachable)
	end()
	cm.parent = "probe"
	cm.timed(func() {
		mgr.StageDone("probe", nil, &checkpoint.ProbeState{Results: res.ProbeResults, Stats: res.ProbeStats})
	})

	// ---- sanitise ----
	end, _ = stage("sanitise")
	var docs []abuse.Document
	var contentDocs []string
	var contentTypes []content.Type
	tr.do("secrets.sanitise", "sanitise", func() {
		docs, contentDocs, contentTypes = sanitise(cfg, res, pop)
	})
	end()
	cm.parent = "sanitise"
	cm.timed(func() { mgr.StageDone("sanitise", nil, nil) })

	// ---- cluster ----
	end, _ = stage("cluster")
	tr.do("content.cluster", "cluster", func() {
		res.ClustersByType = clusterByType(contentDocs, contentTypes, cfg)
		for _, n := range res.ClustersByType {
			res.TotalClusters += n
		}
	})
	end()
	cm.parent = "cluster"
	cm.timed(func() { mgr.StageDone("cluster", nil, nil) })

	// ---- classify (+ C2 sweep) ----
	end, _ = stage("classify")
	tr.do("abuse.classify", "classify", func() {
		res.Verdicts = map[string][]abuse.Verdict{}
		verdicts := make([][]abuse.Verdict, len(docs))
		parallelFor(len(docs), cfg.Workers, func(i int) { verdicts[i] = abuse.Classify(&docs[i]) })
		for i, vs := range verdicts {
			if len(vs) > 0 {
				res.Verdicts[docs[i].FQDN] = vs
			}
		}
	})
	if !cfg.SkipC2Scan {
		c2Targets := targets[:0:0]
		for i := range res.ProbeResults {
			r := &res.ProbeResults[i]
			if r.Reachable || r.Failure == probe.FailConn {
				c2Targets = append(c2Targets, r.FQDN)
			}
		}
		tr.do("c2.sweep", "classify", func() {
			res.C2Detections = scanC2(ctx, cfg, servers, db, reg, c2Targets)
		})
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
	tr.do("abuse.classify", "classify", func() {
		res.AbuseReport = abuse.NewReport(res.Verdicts, requests, res.ContentRich)
		var all []abuse.Verdict
		for _, vs := range res.Verdicts {
			all = append(all, vs...)
		}
		res.ResaleGroups = abuse.GroupByContact(all)
	})
	end()
	cm.parent = "classify"
	cm.timed(func() { mgr.StageDone("classify", nil, nil) })

	// ---- assess ----
	end, _ = stage("assess")
	tr.do("disclosure.build", "assess", func() {
		oracle := ti.NewOracle()
		seedTI(oracle, res.C2Detections)
		abused := make([]string, 0, len(res.AbuseReport.Assigned))
		for fqdn := range res.AbuseReport.Assigned {
			abused = append(abused, fqdn)
		}
		res.TICoverage = oracle.Assess(abused)
	})
	end()
	cm.parent = "assess"
	cm.timed(func() { mgr.StageDone("assess", nil, nil) })

	// ---- disclosure ----
	end, _ = stage("disclosure")
	tr.do("disclosure.build", "disclosure", func() {
		res.Disclosures = disclosure.Build(res.AbuseReport, res.Verdicts, requests)
		disclosure.SimulateVendorResponses(res.Disclosures, workload.DeployWindowClock()())
	})
	end()
	cm.parent = "disclosure"
	cm.timed(func() { mgr.StageDone("disclosure", nil, nil) })

	// ---- finish: the deferred block of RunContext, then scfpipe's archive ----
	endFinish := tr.start("finish", "")
	li := mgr.Info()
	res.Recovery = &runs.RecoveryInfo{Checkpoints: li.Writes, LastSeq: li.LastSeq, LastStage: li.LastStage}
	tr.do("obs.stop", "finish", func() {
		res.Resources = sampler.Stop()
		res.Timeline = rec.Stop()
		res.Profiles = capturer.Stop()
	})
	pprof.SetGoroutineLabels(context.Background())
	res.Stages = res.Trace.Records()
	tr.do("obs.stop", "finish", func() { res.Health = mon.Finalize() })
	res.Degradations = collectDegradations(reg)
	res.Elapsed = time.Duration(tr.since() * float64(time.Second))
	for _, d := range res.Degradations {
		elog.EmitDegradation(d)
	}
	elog.EmitMetrics("final", reg)
	var arch *runs.Archive
	var dir string
	tr.do("runs.write", "finish", func() {
		arch = res.BuildArchive("scfpipe", elog)
		dir, err = runs.Write(runDir, arch)
	})
	endFinish()
	if err != nil {
		return nil, err
	}
	traceWall := tr.since()

	rep, err := readArchive(dir)
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	counts := snap.Counters
	addCheckpointLayers(layers, tr, counts, cm.total)
	layers["workload.generate_s"] = tr.sum("workload.generate", false)
	layers["faas.edge_start_s"] = tr.sum("faas.edge_start", false)
	addProbeLayers(layers, tr, snap, res, len(targets), probeBytes, cfg.ProbeTimeout)
	layers["faas.edge_conns"] = float64(servers.conns.Load())
	layers["faas.tls_handshakes"] = float64(servers.handshakes.Load())
	layers["fault.injected"] = float64(counts["fault_dns_injected_total"] + counts["fault_resets_injected_total"] +
		counts["fault_flaps_injected_total"] + counts["fault_truncations_injected_total"] + counts["fault_latency_injected_total"])
	layers["secrets.sanitise_s"] = tr.sum("secrets.sanitise", false)
	layers["content.cluster_s"] = tr.sum("content.cluster", false)
	layers["content.docs"] = float64(len(contentDocs))
	layers["content.clusters"] = float64(res.TotalClusters)
	layers["abuse.classify_s"] = tr.sum("abuse.classify", false)
	layers["disclosure.build_s"] = tr.sum("disclosure.build", false)
	addC2Layers(layers, tr, snap, len(res.C2Detections))
	layers["runs.write_s"] = tr.sum("runs.write", false)
	layers["runs.bytes"] = float64(dirBytes(dir))
	layers["obs.boundary_s"] = tr.sum("obs.boundary", false)
	layers["obs.stop_s"] = tr.sum("obs.stop", false)
	layers["obs.windows"] = float64(len(res.Timeline))
	profileBytes := 0
	for _, s := range res.Profiles {
		profileBytes += len(s.Data)
	}
	layers["obs.profile_bytes"] = float64(profileBytes)
	layers["trace.wall_s"] = traceWall
	layers["trace.coverage"] = ratio(tr.topLevel(), traceWall)
	rep.WallS = traceWall
	rep.Layers = layers
	return rep, nil
}

// newProber mirrors core.runProbeStage's probe.Config closures.
func newProber(cfg core.Config, pop *workload.Population, resolver *dnssim.Resolver, servers *edge, injector *fault.Injector, reg *obs.Registry) *probe.Prober {
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
	name := func(fqdn, fallback string) string {
		if info, ok := matcher.Identify(fqdn); ok {
			return info.Name
		}
		return fallback
	}
	return probe.New(probe.Config{
		Timeout:      cfg.ProbeTimeout,
		Concurrency:  cfg.ProbeConcurrency,
		Retries:      cfg.ProbeRetries,
		RetryBackoff: cfg.ProbeRetryBackoff,
		Breaker:      breaker,
		BreakerKey:   func(fqdn string) string { return name(fqdn, fqdn) },
		Provider:     func(fqdn string) string { return name(fqdn, "unknown") },
		Metrics:      reg,
		Resolve: injector.WrapResolve(func(fqdn string) error {
			rng := rand.New(rand.NewSource(int64(pdns.HashFQDN(fqdn))))
			_, err := resolver.Resolve(fqdn, rng)
			return err
		}),
		DialContext: injector.WrapDial(simDialer(servers, httpOnly)),
	})
}

// sanitise mirrors core's sanitise stage: the parallel scan+anonymise pass
// and the serial fold in probe-result order.
func sanitise(cfg core.Config, res *core.Results, pop *workload.Population) ([]abuse.Document, []string, []content.Type) {
	anon := secrets.NewAnonymizer(rand.New(rand.NewSource(cfg.Seed ^ 0x5a17)))
	res.TypeCounts = map[content.Type]int{}
	byFQDN := make(map[string]*workload.Function, len(pop.Functions))
	for _, f := range pop.Functions {
		byFQDN[f.FQDN] = f
	}
	type sanitised struct {
		doc      abuse.Document
		findings []secrets.Finding
		ct       content.Type
		keep     bool
		rich     bool
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
		out.doc = abuse.Document{FQDN: r.FQDN, Status: r.Status, ContentType: r.ContentType, Body: body, Location: r.Location}
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
	return docs, contentDocs, contentTypes
}

// clusterByType mirrors core.clusterByType.
func clusterByType(docs []string, types []content.Type, cfg core.Config) map[content.Type]int {
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

// scanC2 mirrors core.scanC2: every target through the plain listener,
// bounded by C2Concurrency.
func scanC2(ctx context.Context, cfg core.Config, servers *edge, db *c2.DB, reg *obs.Registry, targets []string) []c2.Detection {
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
		wg.Add(1)
		sem <- struct{}{}
		go func(host string) {
			defer wg.Done()
			defer func() { <-sem }()
			if ds := scanner.ScanHost(ctx, host); len(ds) > 0 {
				mu.Lock()
				out = append(out, ds...)
				mu.Unlock()
			}
		}(host)
	}
	wg.Wait()
	return out
}

// seedTI mirrors core.seedTI: threat intelligence knows at most four of the
// C2 relays.
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

// degradationMetrics mirrors core's (metric, stage, kind) table.
var degradationMetrics = []struct{ metric, stage, kind string }{
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
	{"recovery_resumed_total", "pipeline", "recovery-resumed"},
	{"checkpoint_write_errors_total", "pipeline", "checkpoint-write-errors"},
}

// collectDegradations mirrors core.collectDegradations.
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

// parallelFor mirrors core.parallelFor: strided fan-out over workers.
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

// addProbeLayers fills the probe metrics from the sweep span, probe.Stats
// and the registry.
func addProbeLayers(layers map[string]float64, tr *tracer, snap obs.Snapshot, res *core.Results, targets int, allocBytes float64, timeout time.Duration) {
	c := snap.Counters
	st := res.ProbeStats
	h := snap.Histograms["probe_request_seconds"]
	layers["probe.sweep_s"] = tr.sum("probe.sweep", false)
	layers["probe.cpu_s"] = tr.sum("probe.sweep", true)
	layers["probe.targets"] = float64(targets)
	layers["probe.requests"] = float64(st.Requests)
	layers["probe.reachable"] = float64(st.Reachable)
	layers["probe.useful_ratio"] = ratio(float64(st.Reachable), float64(st.Requests))
	layers["probe.timeouts"] = float64(c["probe_timeouts_total"])
	layers["probe.timeout_wait_s"] = float64(c["probe_timeouts_total"]) * timeout.Seconds()
	layers["probe.slot_s"] = h.Sum
	layers["probe.timeout_share"] = ratio(layers["probe.timeout_wait_s"], h.Sum)
	layers["probe.request_p50_ms"] = h.Quantile(0.5) * 1000
	layers["probe.request_p99_ms"] = h.Quantile(0.99) * 1000
	layers["probe.retries"] = float64(c["probe_conn_retries_total"])
	layers["probe.breaker_skips"] = float64(c["probe_breaker_skips_total"])
	layers["probe.alloc_bytes_per_request"] = ratio(allocBytes, float64(st.Requests))
}

// addC2Layers fills the C2 sweep metrics.
func addC2Layers(layers map[string]float64, tr *tracer, snap obs.Snapshot, detections int) {
	c := snap.Counters
	h := snap.Histograms["c2_scan_seconds"]
	hosts := float64(c["c2_hosts_scanned_total"])
	layers["c2.sweep_s"] = tr.sum("c2.sweep", false)
	layers["c2.cpu_s"] = tr.sum("c2.sweep", true)
	layers["c2.hosts"] = hosts
	layers["c2.probes"] = float64(c["c2_probes_total"])
	layers["c2.detections"] = float64(detections)
	layers["c2.ns_per_host"] = ratio(layers["c2.sweep_s"]*1e9, hosts)
	layers["c2.scan_p50_ms"] = h.Quantile(0.5) * 1000
	layers["c2.scan_p99_ms"] = h.Quantile(0.99) * 1000
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
