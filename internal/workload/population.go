package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/abuse"
	"repro/internal/c2"
	"repro/internal/paper"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// Function is one generated cloud function with its full simulated history.
type Function struct {
	FQDN     string
	Provider providers.ID
	Region   string
	Profile  Profile

	// Temporal plan: ActiveDays (sorted) each carry DailyInvocations.
	ActiveDays       []pdns.Date
	DailyInvocations []int64
	Total            int64

	// HTTPOnly functions do not answer HTTPS (0.18% of reachable fleet).
	HTTPOnly bool
	// SecretKind plants one sensitive value in the response body.
	SecretKind SecretKind
	// Contact is the promotion handle for resale functions.
	Contact string
	// AccountSale marks resale functions selling whole OpenAI accounts.
	AccountSale bool
	// C2Family names the malware family for C2 relays.
	C2Family string
	// Campaign labels gambling-site functions run by one operation; sites
	// of a campaign share page structure and SEO verification tokens.
	Campaign string
	// GeoKind selects the geo-proxy flavour (0 frontend, 1 simple relay,
	// 2 github, 3 vpn).
	GeoKind int
	// BodySeed drives deterministic body generation.
	BodySeed int64
}

// FirstDay returns the function's first active day.
func (f *Function) FirstDay() pdns.Date { return f.ActiveDays[0] }

// LastDay returns the function's last active day.
func (f *Function) LastDay() pdns.Date { return f.ActiveDays[len(f.ActiveDays)-1] }

// Lifespan returns last-first+1 in days.
func (f *Function) Lifespan() int { return f.LastDay().Sub(f.FirstDay()) + 1 }

// Population is the generated fleet.
type Population struct {
	Config    Config
	Window    pdns.Window
	Functions []*Function
}

// fqdnPool guarantees global FQDN uniqueness across the population (project
// and function names are drawn from a small vocabulary, so collisions would
// otherwise occur, especially on Google gen-1 domains).
type fqdnPool map[string]struct{}

func (p fqdnPool) generate(in *providers.Info, rng *rand.Rand, region string) string {
	for tries := 0; ; tries++ {
		// Providers with tiny namespaces (IBM domains are region-only) can
		// exhaust the preferred region; fall back to drawing fresh regions.
		r := region
		if tries > 25 {
			r = ""
		}
		d := in.Generate(rng, r)
		if _, ok := p[d]; !ok {
			p[d] = struct{}{}
			return d
		}
		if tries > 10_000 {
			panic("workload: fqdn namespace exhausted for " + in.Name)
		}
	}
}

// Generate builds the fleet deterministically from cfg. The per-provider
// benign cohorts — the bulk of the population — are generated concurrently,
// each provider on its own RNG stream seeded from (Seed, provider suffix);
// the output is therefore identical for every cfg.Workers value, and equal
// seeds give identical fleets.
func Generate(cfg Config) *Population {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := Window()
	pop := &Population{Config: cfg, Window: w}

	// Abuse cohorts first: their provider placements are deducted from the
	// benign per-provider counts so Table 2 totals stay calibrated.
	pool := make(fqdnPool)
	abuseByProvider := map[providers.ID]int{}
	abusive := generateAbuse(cfg, rng, w, pool)
	for _, f := range abusive {
		abuseByProvider[f.Provider]++
	}

	// Benign cohorts fan out per provider. Provider domain suffixes are
	// disjoint, so cross-provider FQDN collisions are impossible; each
	// goroutine only needs a private pool copy carrying the abuse names to
	// dodge collisions inside its own namespace.
	collected := providers.Collected()
	benign := make([][]*Function, len(collected))
	sem := make(chan struct{}, normWorkers(cfg.Workers))
	var wg sync.WaitGroup
	for i, in := range collected {
		cal := paper.Table2[in.ID]
		n := scaleCount(cal.Domains, cfg.Scale) - abuseByProvider[in.ID]
		if n < 0 {
			n = 0
		}
		targetReq := int64(float64(cal.Requests) * cfg.Scale)
		wg.Add(1)
		go func(i int, in *providers.Info, n int, targetReq int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			prng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed) ^ pdns.HashFQDN(in.DomainSuffix)))))
			localPool := make(fqdnPool, len(pool)+n)
			for fqdn := range pool {
				localPool[fqdn] = struct{}{}
			}
			benign[i] = generateBenign(in, n, targetReq, prng, w, localPool)
		}(i, in, n, targetReq)
	}
	wg.Wait()
	for _, fns := range benign {
		pop.Functions = append(pop.Functions, fns...)
	}
	pop.Functions = append(pop.Functions, abusive...)

	assignSecrets(cfg, rng, pop.Functions)
	dampTencentQuotaChange(pop.Functions)
	sort.Slice(pop.Functions, func(i, j int) bool { return pop.Functions[i].FQDN < pop.Functions[j].FQDN })
	return pop
}

// dampTencentQuotaChange enforces the sharp invocation decline after
// Tencent's free-trial quota change in January 2024 (Fig. 4): daily volumes
// past the change drop to a quarter, deterministically, so the monthly trend
// shows the cliff regardless of which heavy functions the sampler placed
// where.
func dampTencentQuotaChange(fns []*Function) {
	cut := pdns.NewDate(2024, 1, 15)
	for _, f := range fns {
		if f.Provider != providers.Tencent {
			continue
		}
		var total int64
		for i, d := range f.ActiveDays {
			if d >= cut {
				v := f.DailyInvocations[i] / 4
				if v < 1 {
					v = 1
				}
				f.DailyInvocations[i] = v
			}
			total += f.DailyInvocations[i]
		}
		f.Total = total
	}
}

// generateBenign builds n benign functions for one provider whose request
// totals sum (approximately) to targetReq.
func generateBenign(in *providers.Info, n int, targetReq int64, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	if n == 0 {
		return nil
	}
	fns := make([]*Function, 0, n)
	// Regional skew: a provider's home regions carry most deployments,
	// which concentrates requests on a handful of ingress nodes (Finding 2;
	// Table 2 shows the top-10 rdata of concentrated providers answering
	// >90% of requests).
	regionOf := func() string {
		k := len(in.Regions)
		x := rng.Float64()
		switch {
		case k > 2 && x < 0.55:
			return in.Regions[0]
		case k > 2 && x < 0.80:
			return in.Regions[1]
		case k > 3 && x < 0.90:
			return in.Regions[2]
		default:
			return in.Regions[rng.Intn(k)]
		}
	}

	// Draw the invocation mixture (Fig. 5), then rescale the heavy tail so
	// the provider total matches Table 2 without disturbing the <5 mass.
	totals := make([]int64, n)
	var sumLight, sumHeavy int64
	var heavyIdx []int
	for i := range totals {
		x := rng.Float64()
		switch {
		case x < paper.FracUnder5:
			totals[i] = tinyTotal(rng)
			sumLight += totals[i]
		case x < paper.FracUnder5+paper.FracOver100:
			totals[i] = logUniform(rng, 100, 100_000)
			heavyIdx = append(heavyIdx, i)
			sumHeavy += totals[i]
		default:
			totals[i] = logUniform(rng, 5, 100)
			sumLight += totals[i]
		}
	}
	if len(heavyIdx) > 0 && sumHeavy > 0 {
		want := targetReq - sumLight
		if want < int64(len(heavyIdx))*101 {
			want = int64(len(heavyIdx)) * 101
		}
		scale := float64(want) / float64(sumHeavy)
		for _, i := range heavyIdx {
			v := int64(float64(totals[i]) * scale)
			if v < 101 {
				v = 101
			}
			totals[i] = v
		}
	} else if targetReq > sumLight && n > 0 {
		// No heavy draw at tiny scales: pour the remainder onto one function.
		totals[rng.Intn(n)] += targetReq - sumLight
	}

	for i := 0; i < n; i++ {
		f := &Function{
			Provider: in.ID,
			Region:   regionOf(),
			Total:    totals[i],
			BodySeed: rng.Int63(),
		}
		f.FQDN = pool.generate(in, rng, f.Region)
		// The pool may have fallen back to another region; the FQDN is the
		// source of truth.
		if parsed, ok := in.Parse(f.FQDN); ok && parsed.Region != "" {
			f.Region = parsed.Region
		}
		first := sampleFirstDay(in.ID, rng, w)
		if i == 0 {
			// Anchor the adoption series: resolutions begin the month a
			// provider's function URLs ship (Fig. 3 events), which a
			// month-weighted draw can miss when the provider has only a
			// handful of functions at small scales.
			first = providerAvailableFrom(in.ID, w)
		}
		planDays(f, first, benignLifespan(rng, w, first, f.Total), rng, w)
		f.Profile = benignProfile(in.ID, rng)
		if f.Profile != ProfileInternal && f.Profile != ProfileDeleted && rng.Float64() < 1-paper.HTTPS {
			f.HTTPOnly = true
		}
		bucketBody(f, n, rng)
		fns = append(fns, f)
	}
	return fns
}

// benignLifespan draws a lifespan (days) honouring §4.3 (81.30% single-day
// overall, mean ≈ 21.4 days), with single-day probability conditioned on
// invocation volume: one-off test functions die the same day, heavy
// functions persist. The mixture 0.7814·0.93 + 0.1399·0.45 + 0.0787·0.15
// reproduces the overall 0.81 single-day mass.
func benignLifespan(rng *rand.Rand, w pdns.Window, first pdns.Date, total int64) int {
	maxL := w.End.Sub(first) + 1
	// A function observed on two distinct days necessarily has two or more
	// requests, so single-request functions are single-day by construction.
	if total < 2 || rng.Float64() < singleDayProb(total) || maxL <= 1 {
		return 1
	}
	l := int(logUniform(rng, 3, 1200))
	if l > maxL {
		l = maxL
	}
	return l
}

func singleDayProb(total int64) float64 {
	switch {
	case total < 5:
		return 0.93
	case total <= 100:
		return 0.45
	default:
		return 0.15
	}
}

// fracMultiDayDense is the share of multi-day functions invoked every single
// day of their lifespan, solving 0.809 + 0.191·x = 0.8301 (§4.3: 83.01% of
// functions show steady daily invocation).
const fracMultiDayDense = 0.11

// planDays fixes ActiveDays and DailyInvocations for a function starting at
// first with the given lifespan.
func planDays(f *Function, first pdns.Date, lifespan int, rng *rand.Rand, w pdns.Window) {
	if lifespan < 1 || f.Total < 2 {
		lifespan = 1
	}
	last := first.AddDays(lifespan - 1)
	if last > w.End {
		last = w.End
		lifespan = last.Sub(first) + 1
	}
	var days []pdns.Date
	switch {
	case lifespan == 1:
		days = []pdns.Date{first}
	case rng.Float64() < fracMultiDayDense && int64(lifespan) <= f.Total:
		days = make([]pdns.Date, lifespan)
		for i := range days {
			days[i] = first.AddDays(i)
		}
	default:
		// Intermittent: first and last are always active; sample the rest.
		want := 2
		if f.Total > 2 && lifespan > 2 {
			maxExtra := lifespan - 2
			if int64(maxExtra) > f.Total-2 {
				maxExtra = int(f.Total - 2)
			}
			if maxExtra > 0 {
				want += rng.Intn(maxExtra + 1)
			}
		}
		days = sampleDays(rng, first, last, want)
	}
	f.ActiveDays = days
	f.DailyInvocations = splitTotal(rng, f.Total, len(days), f.Provider, days)
}

// sampleDays picks want distinct days in [first, last] always including the
// endpoints, sorted ascending.
func sampleDays(rng *rand.Rand, first, last pdns.Date, want int) []pdns.Date {
	span := last.Sub(first) + 1
	if want > span {
		want = span
	}
	if want < 1 {
		want = 1
	}
	seen := map[pdns.Date]struct{}{first: {}}
	if want > 1 {
		seen[last] = struct{}{}
	}
	for len(seen) < want {
		seen[first.AddDays(rng.Intn(span))] = struct{}{}
	}
	days := make([]pdns.Date, 0, len(seen))
	for d := range seen {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	return days
}

// splitTotal distributes total invocations over the active days, applying
// provider intensity modulation (Tencent's free-quota change cuts usage
// sharply from January 2024, Fig. 4).
func splitTotal(rng *rand.Rand, total int64, n int, id providers.ID, days []pdns.Date) []int64 {
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	if total < int64(n) {
		total = int64(n)
	}
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = (0.2 + rng.Float64()) * intensity(id, days[i])
		sum += weights[i]
	}
	var assigned int64
	for i := range out {
		out[i] = 1 + int64(float64(total-int64(n))*weights[i]/sum)
		assigned += out[i]
	}
	// Fix rounding drift on a random day.
	out[rng.Intn(n)] += total - assigned
	if out[0] < 1 {
		out[0] = 1
	}
	return out
}

// intensity modulates invocation volume per provider over time.
func intensity(id providers.ID, d pdns.Date) float64 {
	if id == providers.Tencent && d >= pdns.NewDate(2024, 1, 15) {
		return 0.25
	}
	return 1
}

// sampleFirstDay draws the first-seen date per provider, encoding the event
// calendar of Figs. 3/4.
func sampleFirstDay(id providers.ID, rng *rand.Rand, w pdns.Window) pdns.Date {
	weights := make([]float64, 24)
	for m := range weights {
		weights[m] = monthWeight(id, m)
	}
	m := weightedIndex(rng, weights)
	monthStart := pdns.NewDate(2022, 4, 1).Time().AddDate(0, m, 0)
	start := pdns.DateOf(monthStart)
	end := pdns.DateOf(monthStart.AddDate(0, 1, -1))
	if end > w.End {
		end = w.End
	}
	span := end.Sub(start) + 1
	return start.AddDays(rng.Intn(span))
}

// providerAvailableFrom returns the first day the provider's function URLs
// existed: Kingsoft shipped August 2022, Tencent August 2023 (§4.1);
// everyone else predates the window.
func providerAvailableFrom(id providers.ID, w pdns.Window) pdns.Date {
	switch id {
	case providers.Kingsoft:
		return pdns.NewDate(2022, 8, 1)
	case providers.Tencent:
		return pdns.NewDate(2023, 8, 1)
	default:
		return w.Start
	}
}

// clampLaunch pushes a first-seen day forward to the provider's launch.
func clampLaunch(id providers.ID, first pdns.Date, w pdns.Window) pdns.Date {
	if from := providerAvailableFrom(id, w); first < from {
		return from
	}
	return first
}

// monthWeight returns the relative first-seen weight of month m (0 = April
// 2022) for the provider.
func monthWeight(id providers.ID, m int) float64 {
	base := 1 + 0.04*float64(m) // gentle market growth
	switch id {
	case providers.AWS:
		if m == 0 { // function URL launch, April 2022
			return base * 6
		}
	case providers.Kingsoft:
		if m < 4 { // function URL shipped August 2022
			return 0
		}
	case providers.Tencent:
		if m < 16 { // function URL shipped August 2023
			return 0
		}
		if m >= 21 { // free-trial quota change, January 2024
			return base * 0.3
		}
	case providers.Google2:
		if m < 2 { // gen-2 release spike tail (February 2022)
			return base * 1.4
		}
		if m >= 16 { // became console default, August 2023
			return base * 1.8
		}
	}
	return base
}

func weightedIndex(rng *rand.Rand, ws []float64) int {
	var sum float64
	for _, w := range ws {
		sum += w
	}
	x := rng.Float64() * sum
	for i, w := range ws {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(ws) - 1
}

// bucketBody makes a share of content-rich responses exact template
// duplicates: frameworks, scaffolds and copy-pasted handlers produce
// near-identical pages in the wild, which is what lets the paper collapse
// 12,138 responses into 4,512 clusters (ratio ≈ 0.37). Sharing a BodySeed
// shares the generated body verbatim.
func bucketBody(f *Function, cohort int, rng *rand.Rand) {
	switch f.Profile {
	case ProfileJSON, ProfileHTML, ProfileText, ProfileOther:
	default:
		return
	}
	if rng.Float64() >= 0.75 {
		return // unique body
	}
	// Only ~3% of a provider's functions answer with content (Fig. 6), so
	// bucket counts scale with that content-rich subset: one template per
	// ~20 content-rich responders keeps the cluster/document ratio near the
	// paper's 4,512/12,138.
	buckets := cohort / 640
	if buckets < 1 {
		buckets = 1
	}
	f.BodySeed = int64(hashBucket(int(f.Provider), int(f.Profile), rng.Intn(buckets)))
}

func hashBucket(provider, profile, bucket int) uint32 {
	h := uint32(2166136261)
	for _, v := range [3]int{provider, profile, bucket} {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

// benignProfile draws the probe-outcome profile (Fig. 6 mix). DNS-deleted
// functions exist only on Tencent (no wildcard): the paper's 1,597 DNS
// failures are 25.95% of Tencent's 6,154 domains. AWS functions carry the
// bulk of the 502s.
func benignProfile(id providers.ID, rng *rand.Rand) Profile {
	if id == providers.Tencent && rng.Float64() < fracTencentDeleted {
		return ProfileDeleted
	}
	if rng.Float64() < fracUnreachOther {
		return ProfileInternal
	}
	// Status mix among reachable functions. AWS trades 404 mass for 502s
	// so it ends up holding ~half of all 502 responses (§4.4).
	mix := statusMix
	if id == providers.AWS {
		// AWS holds roughly half of all 502s (§4.4) despite 3.7% of the
		// fleet: unhandled exceptions surface as 502 at the function URL.
		if rng.Float64() < 0.32 {
			return ProfileServerErr
		}
	}
	x := rng.Float64()
	var acc float64
	for _, sm := range mix {
		acc += sm.Frac
		if x < acc {
			switch sm.Status {
			case 200:
				return profile200(rng)
			case 502, 500, 503:
				return ProfileServerErr
			case 401:
				return ProfileAuth
			case 403:
				return ProfileForbidden
			case 404:
				return ProfileNotFound
			default:
				return ProfileOtherCode
			}
		}
	}
	return ProfileNotFound
}

func profile200(rng *rand.Rand) Profile {
	if rng.Float64() < paper.Empty200 {
		return ProfileEmpty200
	}
	x := rng.Float64()
	var acc float64
	for _, cm := range contentTypeMix {
		acc += cm.Frac
		if x < acc {
			return cm.Kind
		}
	}
	return ProfileText
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	l := math.Log(float64(lo))
	h := math.Log(float64(hi))
	v := int64(math.Exp(l + rng.Float64()*(h-l)))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// tinyTotal draws the request count of a rarely-invoked function. The mass
// sits on 3–4 requests so that, together with the 5–6 tail of the mid
// cohort, the histogram peaks in the paper's 3–6 band (Fig. 5: 73.51% of
// functions in 3.35–6.13 requests) while staying under 5 for the 78.14%.
func tinyTotal(rng *rand.Rand) int64 {
	x := rng.Float64()
	switch {
	case x < 0.05:
		return 1
	case x < 0.13:
		return 2
	case x < 0.57:
		return 3
	default:
		return 4
	}
}

// assignSecrets plants the §5 sensitive-data census across content-rich
// benign responders.
func assignSecrets(cfg Config, rng *rand.Rand, fns []*Function) {
	var rich []*Function
	for _, f := range fns {
		if !providers.Get(f.Provider).ActiveProbe {
			continue // never probed, so a planted secret would never be seen
		}
		switch f.Profile {
		case ProfileJSON, ProfileHTML, ProfileText, ProfileOther:
			rich = append(rich, f)
		}
	}
	rng.Shuffle(len(rich), func(i, j int) { rich[i], rich[j] = rich[j], rich[i] })
	idx := 0
	for _, sc := range secretsCensus {
		n := scaleCount(sc.Count, cfg.Scale)
		for i := 0; i < n && idx < len(rich); i++ {
			rich[idx].SecretKind = sc.Kind
			idx++
		}
	}
}

// generateAbuse builds the Table 3 cohorts.
func generateAbuse(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	var out []*Function
	add := func(fs []*Function) { out = append(out, fs...) }

	add(cohortC2(cfg, rng, w, pool))
	add(cohortGambling(cfg, rng, w, pool))
	add(cohortPorn(cfg, rng, w, pool))
	add(cohortCheat(cfg, rng, w, pool))
	add(cohortRedirect(cfg, rng, w, pool))
	add(cohortResale(cfg, rng, w, pool))
	add(cohortIllegalProxy(cfg, rng, w, pool))
	add(cohortGeoProxy(cfg, rng, w, pool))
	return out
}

// newAbuseFn builds the shared scaffolding of one abusive function.
func newAbuseFn(pool fqdnPool, rng *rand.Rand, id providers.ID, region string, profile Profile, total int64) *Function {
	in := providers.Get(id)
	if region == "" {
		region = in.Regions[rng.Intn(len(in.Regions))]
	}
	return &Function{
		FQDN:     pool.generate(in, rng, region),
		Provider: id,
		Region:   region,
		Profile:  profile,
		Total:    total,
		BodySeed: rng.Int63(),
	}
}

// cohortTotals splits a case's scaled request budget across its functions.
func cohortTotals(rng *rand.Rand, requests int64, n int, scale float64) []int64 {
	budget := int64(float64(requests) * scale)
	if budget < int64(n) {
		budget = int64(n)
	}
	out := make([]int64, n)
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
		sum += weights[i]
	}
	var assigned int64
	for i := range out {
		out[i] = 1 + int64(float64(budget-int64(n))*weights[i]/sum)
		assigned += out[i]
	}
	out[0] += budget - assigned
	return out
}

// pickProvider draws from the cohort's provider weights.
func pickProvider(rng *rand.Rand, c abuse.Case) providers.ID {
	ids := cohortProviders[c]
	return ids[rng.Intn(len(ids))]
}

func cohortC2(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseC2]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	for i := 0; i < n; i++ {
		// Majority on Tencent, a single instance on Google2 (§5.1).
		id := providers.Tencent
		if i == n-1 && n > 1 {
			id = providers.Google2
		}
		f := newAbuseFn(pool, rng, id, "", ProfileC2Relay, totals[i])
		f.C2Family = c2.FamilyCobaltStrike
		if i%5 == 4 {
			f.C2Family = c2.FamilyInfoStealer
		}
		// ~112 calls/day (§5.1): lifespan sized to the per-function volume.
		days := int(f.Total / 112)
		if days < 7 {
			days = 7
		}
		first := sampleFirstDay(id, rng, w)
		if maxL := w.End.Sub(first) + 1; days > maxL {
			days = maxL
		}
		planDense(f, first, days)
		fns = append(fns, f)
	}
	return fns
}

// planDense makes the function active every day of [first, first+days).
func planDense(f *Function, first pdns.Date, days int) {
	if int64(days) > f.Total {
		days = int(f.Total)
	}
	if days < 1 {
		days = 1
	}
	f.ActiveDays = make([]pdns.Date, days)
	for i := range f.ActiveDays {
		f.ActiveDays[i] = first.AddDays(i)
	}
	f.DailyInvocations = make([]int64, days)
	base := f.Total / int64(days)
	rem := f.Total - base*int64(days)
	for i := range f.DailyInvocations {
		f.DailyInvocations[i] = base
		if int64(i) < rem {
			f.DailyInvocations[i]++
		}
		if f.DailyInvocations[i] < 1 {
			f.DailyInvocations[i] = 1
		}
	}
}

func cohortGambling(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseGambling]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	for i := 0; i < n; i++ {
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CaseGambling), "", ProfileGambling, totals[i])
		// Campaign consistency (§5.2): sites cluster into a few operations
		// sharing structure and google-site-verification elements.
		f.Campaign = fmt.Sprintf("campaign-%02d", i%3)
		f.BodySeed = int64(hashBucket(int(f.Provider), int(ProfileGambling), i%3))
		// Long-lived campaign sites: mean lifespan 311 days, max 544 (§5.2).
		l := 120 + rng.Intn(381)
		first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(maxInt(1, w.Days()-l))), w)
		planSpread(f, rng, first, l)
		fns = append(fns, f)
	}
	return fns
}

// planSpread activates the function on a sampled subset of a lifespan,
// clipped to the measurement window.
func planSpread(f *Function, rng *rand.Rand, first pdns.Date, lifespan int) {
	last := first.AddDays(lifespan - 1)
	if end := Window().End; last > end {
		last = end
	}
	want := 2 + rng.Intn(maxInt(1, lifespan/3))
	if int64(want) > f.Total {
		want = int(f.Total)
	}
	days := sampleDays(rng, first, last, maxInt(1, want))
	f.ActiveDays = days
	f.DailyInvocations = splitTotal(rng, f.Total, len(days), f.Provider, days)
}

func cohortPorn(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CasePorn]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	// Calls distributed across Jul 2022 – Oct 2023 (§5.2).
	lo := pdns.NewDate(2022, 7, 1)
	hi := pdns.NewDate(2023, 10, 31)
	for i := 0; i < n; i++ {
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CasePorn), "", ProfilePorn, totals[i])
		first := lo.AddDays(rng.Intn(hi.Sub(lo) - 30))
		planSpread(f, rng, first, 30+rng.Intn(90))
		fns = append(fns, f)
	}
	return fns
}

func cohortCheat(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseCheating]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	for i := 0; i < n; i++ {
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CaseCheating), "", ProfileCheat, totals[i])
		l := 60 + rng.Intn(300)
		first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(maxInt(1, w.Days()-l))), w)
		planSpread(f, rng, first, l)
		fns = append(fns, f)
	}
	return fns
}

func cohortRedirect(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseRedirect]
	nStatic := scaleCount(19, cfg.Scale)
	nDyn := scaleCount(4, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, nStatic+nDyn, cfg.Scale)
	fns := make([]*Function, 0, nStatic+nDyn)
	for i := 0; i < nStatic+nDyn; i++ {
		profile := ProfileRedirectStatic
		if i >= nStatic {
			profile = ProfileRedirectDynamic
		}
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CaseRedirect), "", profile, totals[i])
		if profile == ProfileRedirectStatic {
			// Stable traffic direction: mean active duration 152 days (§5.3).
			l := 60 + rng.Intn(200)
			first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(maxInt(1, w.Days()-l))), w)
			planSpread(f, rng, first, l)
		} else {
			// Dynamic redirectors live 1–2 days with a handful of calls.
			f.Total = 1 + int64(rng.Intn(60))
			first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(w.Days()-2)), w)
			planDense(f, first, 1+rng.Intn(2))
		}
		fns = append(fns, f)
	}
	return fns
}

func cohortResale(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseOpenAIResale]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	// Contact handles: one dominant WeChat (157/243 of the cohort), one
	// account-selling group (14/243), the rest spread over the remaining
	// distinct contacts (28 total in the paper).
	nBig := maxInt(1, n*paper.ResaleBiggestGroup/cal.Functions)
	nAccount := maxInt(1, n*paper.ResaleAccountGroup/cal.Functions)
	if nBig+nAccount > n {
		nAccount = maxInt(0, n-nBig)
	}
	nOther := scaleCount(paper.ResaleContacts-2, cfg.Scale)
	fns := make([]*Function, 0, n)
	for i := 0; i < n; i++ {
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CaseOpenAIResale), "", ProfileResale, totals[i])
		switch {
		case i < nBig:
			f.Contact = "wechat:gptkey_major"
		case i < nBig+nAccount:
			f.Contact = "qq:18862233"
			f.AccountSale = true
		default:
			k := rng.Intn(maxInt(1, nOther))
			f.Contact = fmt.Sprintf("email:seller%02d@mail.example", k)
		}
		// Fig. 7: the campaign starts January 2023 (two months after the
		// ChatGPT release) and stays hot through May 2023.
		month := weightedIndex(rng, []float64{0.30, 0.25, 0.20, 0.15, 0.10})
		first := pdns.DateOf(pdns.NewDate(2023, 1, 5).Time().AddDate(0, month, rng.Intn(20)))
		l := 10 + rng.Intn(90)
		if end := pdns.NewDate(2023, 6, 30); first.AddDays(l) > end {
			l = maxInt(1, end.Sub(first))
		}
		planSpread(f, rng, first, l)
		fns = append(fns, f)
	}
	return fns
}

func cohortIllegalProxy(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseIllegalProxy]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	for i := 0; i < n; i++ {
		f := newAbuseFn(pool, rng, pickProvider(rng, abuse.CaseIllegalProxy), "", ProfileIllegalProxy, totals[i])
		l := 100 + rng.Intn(400)
		first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(maxInt(1, w.Days()-l))), w)
		planSpread(f, rng, first, l)
		fns = append(fns, f)
	}
	return fns
}

func cohortGeoProxy(cfg Config, rng *rand.Rand, w pdns.Window, pool fqdnPool) []*Function {
	cal := paper.Table3[abuse.CaseGeoProxy]
	n := scaleCount(cal.Functions, cfg.Scale)
	totals := cohortTotals(rng, cal.Requests, n, cfg.Scale)
	fns := make([]*Function, 0, n)
	// §5.4 composition: 14 OpenAI frontends, 47 simple OpenAI relays,
	// 1 GitHub proxy, 4 VPN proxies, remainder generic relays.
	kinds := geoKinds(n)
	for i := 0; i < n; i++ {
		id := pickProvider(rng, abuse.CaseGeoProxy)
		region := nonChinaRegion(rng, id)
		f := newAbuseFn(pool, rng, id, region, ProfileGeoProxy, totals[i])
		f.GeoKind = kinds[i]
		l := 60 + rng.Intn(300)
		first := clampLaunch(f.Provider, w.Start.AddDays(rng.Intn(maxInt(1, w.Days()-l))), w)
		planSpread(f, rng, first, l)
		fns = append(fns, f)
	}
	return fns
}

// geoKinds apportions the cohort across flavours proportionally to §5.4.
func geoKinds(n int) []int {
	weights := []struct {
		kind, count int
	}{{0, 14}, {1, 47}, {2, 1}, {3, 4}, {1, 20}}
	var out []int
	for _, wk := range weights {
		c := wk.count * n / 86
		for i := 0; i < c; i++ {
			out = append(out, wk.kind)
		}
	}
	for len(out) < n {
		out = append(out, 1)
	}
	return out[:n]
}

// nonChinaRegion draws a region outside mainland China — the defining
// deployment property of geo-bypass proxies (§5.4).
func nonChinaRegion(rng *rand.Rand, id providers.ID) string {
	regions := providers.Get(id).Regions
	for tries := 0; tries < 100; tries++ {
		r := regions[rng.Intn(len(regions))]
		if !providers.ChinaRegion(r) {
			return r
		}
	}
	return regions[0]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
