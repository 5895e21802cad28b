// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// Naming follows the per-experiment index in DESIGN.md: one Benchmark per
// paper artifact (T1–T3, F3–F7) plus supporting statistics and ablations.
package divecloud_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	divecloud "repro"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/c2"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pdns"
	"repro/internal/probe"
	"repro/internal/providers"
	"repro/internal/secrets"
	"repro/internal/ti"
	"repro/internal/workload"
)

// ---- shared fixtures, built once per bench binary ----

var (
	fixOnce    sync.Once
	fixPop     *workload.Population
	fixRecords []pdns.Record
	fixAgg     *pdns.Aggregate
	fixPerFn   []*pdns.FQDNStats
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixPop = workload.Generate(workload.Config{Seed: 1, Scale: 0.01})
		resolver := dnssim.NewResolver()
		recs, err := workload.Records(fixPop, resolver)
		if err != nil {
			panic(err)
		}
		fixRecords = recs
		w := workload.Window()
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		for i := range recs {
			agg.Add(&recs[i])
		}
		fixAgg = agg.Finish()
		fixPerFn = fixAgg.PerFunctionStats()
	})
}

var (
	resOnce   sync.Once
	fixResult *core.Results
)

func pipelineResults(b *testing.B) *core.Results {
	b.Helper()
	resOnce.Do(func() {
		res, err := core.Run(core.Config{
			Seed: 1, Scale: 0.002, SkipC2Scan: true,
			ProbeTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		fixResult = res
	})
	return fixResult
}

// ---- T1: URL formats (Table 1) ----

// BenchmarkTable1URLFormats measures the generate→identify round trip for
// every provider format.
func BenchmarkTable1URLFormats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := providers.NewMatcher(nil)
	formats := providers.Collected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := formats[i%len(formats)]
		dom := in.Generate(rng, "")
		if got, ok := m.Identify(dom); !ok || got.ID != in.ID {
			b.Fatalf("round trip failed for %s: %q", in.Name, dom)
		}
	}
}

// Ablation: suffix-map pre-filter vs regex-only identification over a mixed
// corpus (90% non-function noise, like a real PDNS feed).
func benchIdentify(b *testing.B, slow bool) {
	rng := rand.New(rand.NewSource(2))
	m := providers.NewMatcher(nil)
	var corpus []string
	for i := 0; i < 200; i++ {
		corpus = append(corpus, fmt.Sprintf("host%d.example%d.com", i, i%7))
	}
	for _, in := range providers.Collected() {
		for i := 0; i < 2; i++ {
			corpus = append(corpus, in.Generate(rng, ""))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := corpus[i%len(corpus)]
		if slow {
			m.IdentifySlow(d)
		} else {
			m.Identify(d)
		}
	}
}

func BenchmarkIdentifySuffixMap(b *testing.B) { benchIdentify(b, false) }
func BenchmarkIdentifyRegexOnly(b *testing.B) { benchIdentify(b, true) }

// ---- T2: resolution aggregation (Table 2) ----

// BenchmarkTable2Resolution measures single-pass PDNS aggregation
// throughput (records/op) plus the Table 2 rollup.
func BenchmarkTable2Resolution(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		for j := range fixRecords {
			agg.Add(&fixRecords[j])
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

var (
	batchOnce  sync.Once
	fixBatches []*pdns.RecordBatch
)

// batchFixtures materialises the record fixture as columnar batches sharing
// one intern table (the shape a streaming producer hands AddBatch), for the
// batch-path benchmarks.
func batchFixtures(b *testing.B) {
	b.Helper()
	fixtures(b)
	batchOnce.Do(func() {
		batch := pdns.NewRecordBatch(pdns.DefaultBatchRows)
		for i := range fixRecords {
			if batch.Len() == pdns.DefaultBatchRows {
				fixBatches = append(fixBatches, batch)
				batch = &pdns.RecordBatch{Syms: batch.Syms}
			}
			batch.AppendRecord(&fixRecords[i])
		}
		if batch.Len() > 0 {
			fixBatches = append(fixBatches, batch)
		}
	})
}

// BenchmarkTable2ResolutionBatch is the columnar form of the Table 2 rollup:
// the same records flow in as interned batches through AddBatch. The delta
// against BenchmarkTable2Resolution is what the SoA hot path buys once a
// producer emits batches natively.
func BenchmarkTable2ResolutionBatch(b *testing.B) {
	batchFixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		agg.Presize(len(fixPop.Functions))
		for _, bt := range fixBatches {
			agg.AddBatch(bt)
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

// BenchmarkBatchCodec measures the batch writer pdnsgen streams through:
// write re-encodes the record fixture's batches as TSV via WriteBatch.
func BenchmarkBatchCodec(b *testing.B) {
	batchFixtures(b)
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := pdns.NewWriter(io.Discard, pdns.TSV)
			for _, bt := range fixBatches {
				if err := w.WriteBatch(bt); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(fixRecords)), "records/op")
	})
}

// BenchmarkTable2ResolutionInstrumented is the same rollup with the obs
// counters attached: the delta against BenchmarkTable2Resolution is the
// whole observability overhead on the aggregation hot path (three atomic
// increments per record; must stay within 5% of the baseline).
func BenchmarkTable2ResolutionInstrumented(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := pdns.NewAggregator(nil, w.Start, w.End)
		agg.Instrument(reg)
		for j := range fixRecords {
			agg.Add(&fixRecords[j])
		}
		ag := agg.Finish()
		if rows := analysis.Table2(ag); len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
	b.ReportMetric(float64(len(fixRecords)), "records/op")
}

// BenchmarkObsPrimitives prices the individual instrumentation events.
func BenchmarkObsPrimitives(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h", nil)
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		var nc *obs.Counter
		for i := 0; i < b.N; i++ {
			nc.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%100) / 1000)
		}
	})
	b.Run("span", func(b *testing.B) {
		tr := obs.NewTrace()
		ctx := obs.ContextWithTrace(context.Background(), tr)
		for i := 0; i < b.N; i++ {
			_, sp := obs.StartSpan(ctx, "bench")
			sp.End()
		}
	})
}

// ---- T3: abuse classification (Table 3) ----

// BenchmarkTable3Abuse measures content classification over a realistic
// response corpus and the Table 3 assembly.
func BenchmarkTable3Abuse(b *testing.B) {
	docs := abuseCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts := map[string][]abuse.Verdict{}
		for j := range docs {
			if vs := abuse.Classify(&docs[j]); len(vs) > 0 {
				verdicts[docs[j].FQDN] = vs
			}
		}
		rep := abuse.NewReport(verdicts, nil, len(docs))
		if rep.TotalFunctions() == 0 {
			b.Fatal("no abuse found in corpus")
		}
	}
	b.ReportMetric(float64(len(docs)), "docs/op")
}

func abuseCorpus() []abuse.Document {
	rng := rand.New(rand.NewSource(3))
	var docs []abuse.Document
	bodies := []string{
		`<html><head><meta name="google-site-verification" content="x"/><title>slot betting casino</title></head><body>jackpot slot betting</body></html>`,
		`To purchase an API key (e.g., sk-abc12345...), contact via WeChat: seller_x`,
		`<script>location.href = "http://hidden.illicit.top/x"</script>`,
		`Ticketmaster puppeteer service: auto purchase tickets`,
		`{"status":"ok","count":1}`,
		`<html><body>welcome to my blog</body></html>`,
		`task finished in 20ms`,
	}
	for i := 0; i < 600; i++ {
		docs = append(docs, abuse.Document{
			FQDN:   fmt.Sprintf("f%03d-%010d-uc.a.run.app", i, rng.Int63n(1e9)),
			Status: 200, ContentType: "text/html",
			Body: bodies[i%len(bodies)],
		})
	}
	return docs
}

// ---- F3/F4: trend figures ----

func BenchmarkFigure3MonthlyCounts(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.NewFQDNsByMonth(fixAgg)
		if analysis.CumulativeFQDNs(s)[len(s)-1].Value == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure4InvocationTrends(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.InvocationTrend(fixAgg)) == 0 {
			b.Fatal("empty trends")
		}
	}
}

// ---- F5: invocation distribution ----

func BenchmarkFigure5RequestCDF(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := analysis.Frequency(fixPerFn)
		if st.Functions == 0 {
			b.Fatal("no functions")
		}
	}
}

// BenchmarkLifespanStats covers the §4.3 lifespan/activity analysis.
func BenchmarkLifespanStats(b *testing.B) {
	fixtures(b)
	w := workload.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := analysis.Lifespan(fixPerFn, w)
		if st.Functions == 0 {
			b.Fatal("no functions")
		}
	}
}

// ---- F6: probe sweep over the live gateway ----

// BenchmarkFigure6HTTPCodes measures active-probe throughput against the
// simulated edge (one probed function per op).
func BenchmarkFigure6HTTPCodes(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	// Re-deploy a live edge for this benchmark.
	platform, servers := liveEdge(b, r.Population)
	defer servers.Close()
	_ = platform
	p := probe.New(probe.Config{
		Timeout:     time.Second,
		DialContext: dialBoth(servers),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.Probe(context.Background(), targets[i%len(targets)])
		if res.Failure == probe.FailBudget {
			b.Fatal("probe budget exhausted")
		}
	}
}

// ---- F7: resale trend ----

func BenchmarkFigure7ResaleTrend(b *testing.B) {
	r := pipelineResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.RenderFigure7()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---- §3.4: clustering ----

func clusterCorpus(n int) []string {
	rng := rand.New(rand.NewSource(4))
	families := []string{
		"api response status ok result data",
		"gambling slot betting casino jackpot bonus",
		"task finished processed records log output",
		"welcome homepage service about contact",
	}
	var docs []string
	for i := 0; i < n; i++ {
		fam := families[i%len(families)]
		docs = append(docs, fmt.Sprintf("%s variant %d noise%d", fam, i%7, rng.Intn(20)))
	}
	return docs
}

func BenchmarkClustering(b *testing.B) {
	docs := clusterCorpus(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(content.ClusterDocs(docs, 0.1)) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// Ablation: dendrogram cut threshold (0.05 / 0.10 / 0.20).
func BenchmarkClusteringThreshold(b *testing.B) {
	docs := clusterCorpus(300)
	v := content.NewVectorizer(docs)
	dend := content.Agglomerate(v.TransformAll(docs))
	for _, th := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("cut=%.2f", th), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dend.Cut(th)
			}
			b.ReportMetric(float64(dend.NumClusters(th)), "clusters")
		})
	}
}

// ---- §5: secrets scan ----

func BenchmarkSecretsScan(b *testing.B) {
	bodies := []string{
		`{"status":"ok","token":"none"}`,
		`debug contact: 13812345678 and api_key: zq81kfh27dkq9sX2`,
		`<html><body>hello world page</body></html>`,
		`upstream 10.1.2.3 hwaddr 00:1a:2b:3c:4d:5e password=hunter22x`,
	}
	anon := secrets.NewAnonymizerWithSalt("benchsalt0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, fs := anon.Sanitize(bodies[i%len(bodies)])
		_ = fs
	}
}

// ---- §5.1: C2 fingerprints ----

// BenchmarkC2Fingerprint measures pure matcher throughput over banners.
func BenchmarkC2Fingerprint(b *testing.B) {
	db := c2.DefaultDB()
	fps := db.All()
	banners := make([][]byte, len(fps))
	for i, fp := range fps {
		banners[i] = c2.Banner(fp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := fps[i%len(fps)]
		if !fp.Match.Matches(banners[i%len(fps)]) {
			b.Fatal("matcher regression")
		}
	}
}

// BenchmarkC2ScanHost measures a full 26-signature network scan of one live
// relay (per op).
func BenchmarkC2ScanHost(b *testing.B) {
	db := c2.DefaultDB()
	relay, err := c2.NewRelay(db, c2.FamilyCobaltStrike)
	if err != nil {
		b.Fatal(err)
	}
	defer relay.Close()
	s := c2.NewScanner(db)
	s.Timeout = time.Second
	s.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, relay.Addr())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := s.ScanHost(context.Background(), "relay.example"); len(ds) == 0 {
			b.Fatal("relay not detected")
		}
	}
}

// ---- §5.5: threat-intel gap ----

func BenchmarkThreatIntelGap(b *testing.B) {
	oracle := ti.NewOracle()
	var abused []string
	for i := 0; i < 594; i++ {
		abused = append(abused, fmt.Sprintf("fn%03d.a.run.app", i))
	}
	oracle.Seed(abused[:4], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := oracle.Assess(abused)
		if c.Flagged != 4 {
			b.Fatalf("coverage = %d", c.Flagged)
		}
	}
}

// ---- substrate benchmarks and ablations ----

// BenchmarkEmitPDNS measures synthetic feed generation throughput.
func BenchmarkEmitPDNS(b *testing.B) {
	pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.002})
	resolver := dnssim.NewResolver()
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		n = 0
		err := workload.EmitPDNS(pop, resolver, func(r *pdns.Record) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// benchWorkerCounts is the sweep used by the parallel-substrate benchmarks:
// serial baseline, minimal parallelism, full machine.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkAggregateParallel measures the full substrate→identification hot
// path — emission plus §3.2 aggregation with shard-local aggregators and the
// final merge — across worker counts.
func BenchmarkAggregateParallel(b *testing.B) {
	pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.002})
	resolver := dnssim.NewResolver()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var scanned int64
			for i := 0; i < b.N; i++ {
				ag, err := workload.AggregateParallelCkpt(context.Background(), pop, resolver, nil, workers, nil, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				scanned = ag.Scanned
			}
			b.ReportMetric(float64(scanned), "records/op")
		})
	}
}

// Ablation: resolver-cache model on PDNS counts.
func BenchmarkCacheModel(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", on), func(b *testing.B) {
			pop := workload.Generate(workload.Config{Seed: 5, Scale: 0.001, CacheModel: on})
			resolver := dnssim.NewResolver()
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				workload.EmitPDNS(pop, resolver, func(r *pdns.Record) error {
					total += r.RequestCnt
					return nil
				})
			}
			b.ReportMetric(float64(total), "observed-requests")
		})
	}
}

// Ablation: prober concurrency sweep against the live edge.
func BenchmarkProberConcurrency(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	if len(targets) > 64 {
		targets = targets[:64]
	}
	_, servers := liveEdge(b, r.Population)
	defer servers.Close()
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("c=%d", conc), func(b *testing.B) {
			p := probe.New(probe.Config{
				Timeout: time.Second, Concurrency: conc,
				DialContext: dialBoth(servers),
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ProbeAll(context.Background(), targets)
			}
			b.ReportMetric(float64(len(targets)), "probes/op")
		})
	}
}

// Ablation: probe throughput under the heavy chaos profile with bounded
// retries, across chaos seeds. Different seeds fault different FQDNs, so the
// spread across sub-benchmarks shows how much campaign cost the fault
// schedule itself moves; retries/op makes the absorbed failures visible.
func BenchmarkProbeChaosRetries(b *testing.B) {
	r := pipelineResults(b)
	targets := r.Population.ProbeTargets()
	if len(targets) > 64 {
		targets = targets[:64]
	}
	_, servers := liveEdge(b, r.Population)
	defer servers.Close()
	for _, seed := range []int64{1, 2} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			in := fault.New(fault.Heavy().WithSeed(seed))
			in.SetSpikeDelay(100 * time.Millisecond)
			p := probe.New(probe.Config{
				Timeout: time.Second, Concurrency: 32,
				Resolve:      in.WrapResolve(nil),
				DialContext:  in.WrapDial(dialBoth(servers)),
				Retries:      2,
				RetryBackoff: time.Millisecond,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ProbeAll(context.Background(), targets)
			}
			st := p.Stats()
			b.ReportMetric(float64(len(targets)), "probes/op")
			b.ReportMetric(float64(st.Retried)/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkPipelineEndToEnd runs the whole study at a tiny scale per op.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Seed: int64(i + 1), Scale: 0.0005, SkipC2Scan: true,
			ProbeTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Aggregate.TotalDomains() == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkGeneratePDNSFacade exercises the public dataset API.
func BenchmarkGeneratePDNSFacade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := divecloud.GeneratePDNS(9, 0.0005, func(r *divecloud.Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers ----

type edgeServers struct {
	plainAddr, tlsAddr string
	closeFns           []func()
}

func (e *edgeServers) Close() {
	for _, f := range e.closeFns {
		f()
	}
}

// liveEdge deploys the population on a fresh platform behind real HTTP and
// HTTPS listeners, mirroring the pipeline's simulated cloud edge.
func liveEdge(b *testing.B, pop *workload.Population) (*faas.Platform, *edgeServers) {
	b.Helper()
	db := c2.DefaultDB()
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, db)
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 2 * time.Second
	tlsSrv := httptest.NewUnstartedServer(gw)
	// Chaos benchmarks abort TLS handshakes by design; keep the server's
	// complaints out of the bench output.
	tlsSrv.Config.ErrorLog = log.New(io.Discard, "", 0)
	tlsSrv.StartTLS()
	plainSrv := httptest.NewServer(gw)
	e := &edgeServers{
		plainAddr: strings.TrimPrefix(plainSrv.URL, "http://"),
		tlsAddr:   strings.TrimPrefix(tlsSrv.URL, "https://"),
		closeFns:  []func(){tlsSrv.Close, plainSrv.Close},
	}
	return platform, e
}

func dialBoth(e *edgeServers) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		if strings.HasSuffix(addr, ":443") {
			return d.DialContext(ctx, network, e.tlsAddr)
		}
		return d.DialContext(ctx, network, e.plainAddr)
	}
}
