package workload

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/abuse"
	"repro/internal/dnssim"
	"repro/internal/paper"
	"repro/internal/pdns"
	"repro/internal/providers"
)

func testPop(t *testing.T, scale float64) *Population {
	t.Helper()
	return Generate(Config{Seed: 42, Scale: scale})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7, Scale: 0.005})
	b := Generate(Config{Seed: 7, Scale: 0.005})
	if len(a.Functions) != len(b.Functions) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Functions), len(b.Functions))
	}
	for i := range a.Functions {
		fa, fb := a.Functions[i], b.Functions[i]
		if fa.FQDN != fb.FQDN || fa.Total != fb.Total || fa.Profile != fb.Profile {
			t.Fatalf("function %d differs: %+v vs %+v", i, fa, fb)
		}
	}
	c := Generate(Config{Seed: 8, Scale: 0.005})
	if len(c.Functions) > 0 && len(a.Functions) > 0 && c.Functions[0].FQDN == a.Functions[0].FQDN {
		t.Error("different seeds produced identical leading FQDN")
	}
}

func TestPopulationScale(t *testing.T) {
	pop := testPop(t, 0.01)
	// Expected ~531k * 0.01 plus small-count floors.
	n := len(pop.Functions)
	if n < 4800 || n > 6500 {
		t.Errorf("population = %d functions at 1%% scale, want ≈5,320", n)
	}
	// Per-provider proportions track Table 2.
	byProv := map[providers.ID]int{}
	for _, f := range pop.Functions {
		byProv[f.Provider]++
	}
	if byProv[providers.Google2] < byProv[providers.Google] {
		t.Error("Google2 should dominate Google in domain count")
	}
	if byProv[providers.Aliyun] < byProv[providers.AWS] {
		t.Error("Aliyun should exceed AWS in domain count")
	}
	for _, in := range providers.Collected() {
		if byProv[in.ID] == 0 {
			t.Errorf("%s has no functions (small-count floor failed)", in.Name)
		}
	}
}

func TestDomainsMatchProviderPatterns(t *testing.T) {
	pop := testPop(t, 0.002)
	m := providers.NewMatcher(nil)
	for _, f := range pop.Functions {
		in, ok := m.Identify(f.FQDN)
		if !ok || in.ID != f.Provider {
			t.Fatalf("function %q labelled %v, identified %v ok=%v", f.FQDN, f.Provider, in, ok)
		}
	}
}

func TestInvocationDistribution(t *testing.T) {
	pop := testPop(t, 0.02)
	var tiny, heavy, total int
	for _, f := range pop.Functions {
		if f.Profile.Abusive() {
			continue
		}
		total++
		if f.Total < 5 {
			tiny++
		}
		if f.Total > 100 {
			heavy++
		}
	}
	tinyFrac := float64(tiny) / float64(total)
	heavyFrac := float64(heavy) / float64(total)
	if math.Abs(tinyFrac-paper.FracUnder5) > 0.02 {
		t.Errorf("fraction invoked <5 times = %.4f, want ≈ %.4f (Fig. 5)", tinyFrac, paper.FracUnder5)
	}
	if math.Abs(heavyFrac-paper.FracOver100) > 0.02 {
		t.Errorf("fraction invoked >100 times = %.4f, want ≈ %.4f", heavyFrac, paper.FracOver100)
	}
}

func TestRequestTotalsTrackTable2(t *testing.T) {
	pop := testPop(t, 0.02)
	totals := pop.ProviderTotals()
	for _, id := range []providers.ID{providers.Aliyun, providers.Google, providers.AWS, providers.Google2} {
		want := float64(paper.Table2[id].Requests) * 0.02
		got := float64(totals[id])
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("%v: generated %d requests, want ≈%d (±30%%)", id, totals[id], int64(want))
		}
	}
	// Ranking must hold: Google > Aliyun > AWS > Google2 > Baidu.
	if !(totals[providers.Google] > totals[providers.Aliyun] &&
		totals[providers.Aliyun] > totals[providers.AWS] &&
		totals[providers.AWS] > totals[providers.Google2]) {
		t.Errorf("request ranking broken: %v", totals)
	}
}

func TestLifespanDistribution(t *testing.T) {
	pop := testPop(t, 0.02)
	var single, dense, total int
	var lifespanSum float64
	for _, f := range pop.Functions {
		if f.Profile.Abusive() {
			continue
		}
		total++
		if f.Lifespan() == 1 {
			single++
		}
		if f.Lifespan() == len(f.ActiveDays) {
			dense++
		}
		lifespanSum += float64(f.Lifespan())
	}
	singleFrac := float64(single) / float64(total)
	if math.Abs(singleFrac-paper.SingleDayLifespan) > 0.02 {
		t.Errorf("single-day fraction = %.4f, want ≈ %.4f (§4.3)", singleFrac, paper.SingleDayLifespan)
	}
	denseFrac := float64(dense) / float64(total)
	if math.Abs(denseFrac-paper.DensityOne) > 0.03 {
		t.Errorf("density-one fraction = %.4f, want ≈ %.4f", denseFrac, paper.DensityOne)
	}
	mean := lifespanSum / float64(total)
	if mean < 10 || mean > 40 {
		t.Errorf("mean lifespan = %.2f days, want ≈ 21.4", mean)
	}
}

func TestActiveDaysInvariants(t *testing.T) {
	pop := testPop(t, 0.005)
	w := Window()
	for _, f := range pop.Functions {
		if len(f.ActiveDays) == 0 || len(f.ActiveDays) != len(f.DailyInvocations) {
			t.Fatalf("%s: days/invocations mismatch", f.FQDN)
		}
		var sum int64
		for i, d := range f.ActiveDays {
			if d < w.Start || d > w.End {
				t.Fatalf("%s: active day %v outside window", f.FQDN, d)
			}
			if i > 0 && f.ActiveDays[i-1] >= d {
				t.Fatalf("%s: active days not strictly increasing", f.FQDN)
			}
			if f.DailyInvocations[i] < 1 {
				t.Fatalf("%s: day %v has %d invocations", f.FQDN, d, f.DailyInvocations[i])
			}
			sum += f.DailyInvocations[i]
		}
		if sum != f.Total {
			t.Fatalf("%s: daily sum %d != total %d", f.FQDN, sum, f.Total)
		}
		if int64(len(f.ActiveDays)) > f.Total {
			t.Fatalf("%s: more active days (%d) than invocations (%d)", f.FQDN, len(f.ActiveDays), f.Total)
		}
	}
}

func TestProviderLaunchEvents(t *testing.T) {
	pop := testPop(t, 0.02)
	kingsoftLaunch := pdns.NewDate(2022, time.August, 1)
	tencentLaunch := pdns.NewDate(2023, time.August, 1)
	for _, f := range pop.Functions {
		switch f.Provider {
		case providers.Kingsoft:
			if f.FirstDay() < kingsoftLaunch {
				t.Errorf("Kingsoft function first seen %v, before function-URL launch", f.FirstDay())
			}
		case providers.Tencent:
			if f.FirstDay() < tencentLaunch {
				t.Errorf("Tencent function first seen %v, before function-URL launch", f.FirstDay())
			}
		}
	}
}

func TestAWSLaunchSpike(t *testing.T) {
	pop := testPop(t, 0.02)
	firstMonth := 0
	total := 0
	for _, f := range pop.Functions {
		if f.Provider != providers.AWS {
			continue
		}
		total++
		if f.FirstDay().Month() == pdns.NewDate(2022, time.April, 1) {
			firstMonth++
		}
	}
	if total == 0 {
		t.Fatal("no AWS functions")
	}
	frac := float64(firstMonth) / float64(total)
	if frac < 0.12 {
		t.Errorf("AWS April-2022 first-seen share = %.3f, want a launch spike (> uniform 1/24)", frac)
	}
}

func TestAbuseCohortShape(t *testing.T) {
	pop := testPop(t, 0.05)
	counts := map[abuse.Case]int{}
	var reqs int64
	for _, f := range pop.Functions {
		if c, ok := f.Profile.AbuseCase(); ok {
			counts[c]++
			reqs += f.Total
		}
	}
	// At 5% scale the paper's 594 abused functions become ≈30, with every
	// case represented.
	for c := abuse.Case(0); int(c) < abuse.NumCases; c++ {
		if counts[c] == 0 {
			t.Errorf("case %v has no functions", c)
		}
	}
	if counts[abuse.CaseOpenAIResale] < counts[abuse.CaseC2] {
		t.Error("resale cohort should outnumber C2 cohort")
	}
	if counts[abuse.CaseGambling] < counts[abuse.CasePorn] {
		t.Error("gambling cohort should outnumber porn cohort")
	}
	paperAbuseReqs := 614_219.0
	wantReqs := int64(paperAbuseReqs * 0.05)
	if reqs < wantReqs/2 || reqs > wantReqs*2 {
		t.Errorf("abuse requests = %d, want ≈%d", reqs, wantReqs)
	}
}

func TestResaleCohortStructure(t *testing.T) {
	pop := testPop(t, 0.2)
	contacts := map[string]int{}
	var resaleWindowViolations int
	lo, hi := pdns.NewDate(2022, time.December, 25), pdns.NewDate(2023, time.July, 1)
	for _, f := range pop.Functions {
		if f.Profile != ProfileResale {
			continue
		}
		if f.Contact == "" {
			t.Fatalf("resale function %s has no contact", f.FQDN)
		}
		contacts[f.Contact]++
		if f.Provider != providers.Aliyun {
			t.Errorf("resale function on %v, want Aliyun (§5.3)", f.Provider)
		}
		if f.FirstDay() < lo || f.LastDay() > hi {
			resaleWindowViolations++
		}
	}
	if contacts["wechat:gptkey_major"] == 0 {
		t.Error("dominant WeChat group missing")
	}
	// The dominant group holds the majority (157/243 in the paper).
	var totalResale, biggest int
	for c, n := range contacts {
		totalResale += n
		if n > biggest && c == "wechat:gptkey_major" {
			biggest = n
		}
	}
	if float64(contacts["wechat:gptkey_major"])/float64(totalResale) < 0.5 {
		t.Errorf("dominant group share = %d/%d, want > 50%%", contacts["wechat:gptkey_major"], totalResale)
	}
	if resaleWindowViolations > 0 {
		t.Errorf("%d resale functions outside the Jan–Jun 2023 campaign window (Fig. 7)", resaleWindowViolations)
	}
}

func TestC2CohortStructure(t *testing.T) {
	pop := testPop(t, 0.5)
	var tencent, google2, other int
	for _, f := range pop.Functions {
		if f.Profile != ProfileC2Relay {
			continue
		}
		if f.C2Family == "" {
			t.Fatalf("C2 relay %s has no family", f.FQDN)
		}
		switch f.Provider {
		case providers.Tencent:
			tencent++
		case providers.Google2:
			google2++
		default:
			other++
		}
	}
	if tencent == 0 || google2 != 1 || other != 0 {
		t.Errorf("C2 providers = tencent:%d google2:%d other:%d, want majority Tencent + single Google2", tencent, google2, other)
	}
}

func TestGeoProxyOutsideChina(t *testing.T) {
	pop := testPop(t, 0.2)
	for _, f := range pop.Functions {
		if f.Profile == ProfileGeoProxy && providers.ChinaRegion(f.Region) {
			t.Errorf("geo-bypass proxy %s deployed in China region %s", f.FQDN, f.Region)
		}
	}
}

func TestTencentDeletedShare(t *testing.T) {
	pop := testPop(t, 0.05)
	var tencent, deleted int
	for _, f := range pop.Functions {
		if f.Provider != providers.Tencent || f.Profile.Abusive() {
			continue
		}
		tencent++
		if f.Profile == ProfileDeleted {
			deleted++
		}
	}
	if tencent == 0 {
		t.Fatal("no Tencent functions")
	}
	frac := float64(deleted) / float64(tencent)
	if math.Abs(frac-fracTencentDeleted) > 0.08 {
		t.Errorf("deleted Tencent share = %.3f, want ≈ %.3f", frac, fracTencentDeleted)
	}
	for _, f := range pop.Functions {
		if f.Profile == ProfileDeleted && f.Provider != providers.Tencent {
			t.Errorf("deleted-DNS profile on %v; only Tencent lacks wildcard DNS", f.Provider)
		}
	}
}

func TestSecretsPlanted(t *testing.T) {
	pop := testPop(t, 0.1)
	counts := map[SecretKind]int{}
	for _, f := range pop.Functions {
		if f.SecretKind != SecretNone {
			counts[f.SecretKind]++
		}
	}
	// 394 findings at 10% scale ≈ 39, dominated by API keys and network IDs.
	var total int
	for _, n := range counts {
		total += n
	}
	if total < 20 || total > 60 {
		t.Errorf("planted secrets = %d, want ≈ 39 at 10%% scale", total)
	}
	if counts[SecretAPIKey] < counts[SecretPhone] {
		t.Error("API keys should dominate phone numbers (§5)")
	}
}

func TestEmitPDNSConsistency(t *testing.T) {
	pop := testPop(t, 0.002)
	resolver := dnssim.NewResolver()
	recs, err := Records(pop, resolver)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records emitted")
	}
	// Sum per fqdn must equal the function totals; validity must hold.
	sums := map[string]int64{}
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		sums[recs[i].FQDN] += recs[i].RequestCnt
	}
	for _, f := range pop.Functions {
		if sums[f.FQDN] != f.Total {
			t.Errorf("%s: records sum %d, function total %d", f.FQDN, sums[f.FQDN], f.Total)
		}
	}
}

func TestEmitPDNSCacheModelLowerBound(t *testing.T) {
	cfgOn := Config{Seed: 42, Scale: 0.002, CacheModel: true}
	popOn := Generate(cfgOn)
	resolver := dnssim.NewResolver()
	recs, err := Records(popOn, resolver)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]int64{}
	for i := range recs {
		sums[recs[i].FQDN] += recs[i].RequestCnt
	}
	lower, equal := 0, 0
	for _, f := range popOn.Functions {
		switch {
		case sums[f.FQDN] < f.Total:
			lower++
		case sums[f.FQDN] == f.Total:
			equal++
		default:
			t.Fatalf("%s: cache model inflated counts (%d > %d)", f.FQDN, sums[f.FQDN], f.Total)
		}
	}
	if lower == 0 {
		t.Error("cache model never reduced any count; expected a conservative lower bound")
	}
	_ = equal
}

func TestAggregationRoundTrip(t *testing.T) {
	// End-to-end: generate → emit → aggregate → per-provider stats match
	// the population.
	pop := testPop(t, 0.002)
	resolver := dnssim.NewResolver()
	w := Window()
	agg := pdns.NewAggregator(nil, w.Start, w.End)
	if err := EmitPDNS(pop, resolver, func(r *pdns.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	ag := agg.Finish()
	if ag.TotalDomains() != len(pop.Functions) {
		t.Errorf("aggregated %d domains, population has %d", ag.TotalDomains(), len(pop.Functions))
	}
	var wantReqs int64
	for _, f := range pop.Functions {
		wantReqs += f.Total
	}
	if ag.TotalRequests() != wantReqs {
		t.Errorf("aggregated %d requests, population has %d", ag.TotalRequests(), wantReqs)
	}
	// Spot-check one function's per-FQDN stats.
	f := pop.Functions[0]
	fs := ag.ByFQDN[f.FQDN]
	if fs == nil {
		t.Fatalf("function %s missing from aggregate", f.FQDN)
	}
	if fs.FirstSeenAll != f.FirstDay() || fs.LastSeenAll != f.LastDay() {
		t.Errorf("first/last = %v/%v, want %v/%v", fs.FirstSeenAll, fs.LastSeenAll, f.FirstDay(), f.LastDay())
	}
	if fs.DaysCount != len(f.ActiveDays) {
		t.Errorf("days count = %d, want %d", fs.DaysCount, len(f.ActiveDays))
	}
}

func TestProbeTargetsOnlyProbeableProviders(t *testing.T) {
	pop := testPop(t, 0.005)
	targets := map[string]bool{}
	for _, fq := range pop.ProbeTargets() {
		targets[fq] = true
	}
	for _, f := range pop.Functions {
		probeable := providers.Get(f.Provider).ActiveProbe
		if targets[f.FQDN] != probeable {
			t.Errorf("%s (provider %v): in targets = %v, probeable = %v", f.FQDN, f.Provider, targets[f.FQDN], probeable)
		}
	}
}

func TestCountByProfileCoversAll(t *testing.T) {
	pop := testPop(t, 0.05)
	counts := pop.CountByProfile()
	if counts[ProfileNotFound] == 0 || counts[ProfileJSON] == 0 || counts[ProfileServerErr] == 0 {
		t.Errorf("profile mix missing mass: %v", counts)
	}
	// 404 dominates (Fig. 6: 89.31% of reachable functions).
	if counts[ProfileNotFound] < counts[ProfileJSON]*10 {
		t.Errorf("404 profile (%d) should dwarf JSON profile (%d)", counts[ProfileNotFound], counts[ProfileJSON])
	}
}

func TestPopulationCodecRoundTrip(t *testing.T) {
	pop := testPop(t, 0.002)
	var buf bytes.Buffer
	if err := WritePopulation(&buf, pop); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPopulation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Functions) != len(pop.Functions) {
		t.Fatalf("round trip count = %d, want %d", len(got.Functions), len(pop.Functions))
	}
	if got.Config.Seed != pop.Config.Seed || got.Config.Scale != pop.Config.Scale {
		t.Errorf("config = %+v", got.Config)
	}
	for i := range pop.Functions {
		a, b := pop.Functions[i], got.Functions[i]
		if a.FQDN != b.FQDN || a.Provider != b.Provider || a.Profile != b.Profile ||
			a.Total != b.Total || a.Contact != b.Contact || a.C2Family != b.C2Family ||
			a.Campaign != b.Campaign || a.BodySeed != b.BodySeed || a.HTTPOnly != b.HTTPOnly {
			t.Fatalf("function %d differs:\n%+v\n%+v", i, a, b)
		}
		if len(a.ActiveDays) != len(b.ActiveDays) {
			t.Fatalf("function %d temporal plan differs", i)
		}
		for j := range a.ActiveDays {
			if a.ActiveDays[j] != b.ActiveDays[j] || a.DailyInvocations[j] != b.DailyInvocations[j] {
				t.Fatalf("function %d day %d differs", i, j)
			}
		}
	}
	// The round-tripped population deploys and emits identically.
	r1, err := Records(pop, dnssim.NewResolver())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Records(got, dnssim.NewResolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("emitted records differ: %d vs %d", len(r1), len(r2))
	}
}

func TestReadPopulationErrors(t *testing.T) {
	if _, err := ReadPopulation(bytes.NewBufferString("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadPopulation(bytes.NewBufferString("not-json\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadPopulation(bytes.NewBufferString(`{"seed":1,"scale":0.1,"count":1}` + "\n" + `{"provider":"nosuch"}` + "\n")); err == nil {
		t.Error("unknown provider accepted")
	}
	if _, err := ReadPopulation(bytes.NewBufferString(`{"seed":1,"scale":0.1,"count":3}` + "\n")); err == nil {
		t.Error("count mismatch accepted")
	}
}
