package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/abuse"
	"repro/internal/analysis"
	"repro/internal/content"
	"repro/internal/paper"
	"repro/internal/pdns"
	"repro/internal/providers"
	"repro/internal/report"
	"repro/internal/secrets"
)

// RenderExperiments produces the paper-vs-measured record for every table
// and figure (the content of EXPERIMENTS.md), as markdown. "Shape holds"
// means the reproduced value matches the paper within the stated tolerance
// or preserves the paper's ordering — absolute counts scale with
// Config.Scale by design. Every paper value comes from internal/paper; the
// ten calibrated rows hold exactly when the run's Calibration share sits
// inside its paper.Targets band, the check `scfruns gate` applies.
func (r *Results) RenderExperiments() string {
	var b strings.Builder
	scale := r.Config.Scale
	fmt.Fprintf(&b, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&b, "Pipeline run: seed %d, scale %.3f (paper population × scale), C2 sweep %v.\n",
		r.Config.Seed, scale, !r.Config.SkipC2Scan)
	fmt.Fprintf(&b, "All absolute paper counts are compared after multiplying by the scale;\n")
	fmt.Fprintf(&b, "proportions and orderings are compared directly. Elapsed: %v.\n\n", r.Elapsed)
	fmt.Fprintf(&b, "Every number below is a pure function of (seed, scale): the pipeline's\n")
	fmt.Fprintf(&b, "worker count (`-workers`) changes only wall-clock time, never a measurement.\n")
	fmt.Fprintf(&b, "Per-function and per-provider RNG streams make the parallel run bit-identical\n")
	fmt.Fprintf(&b, "to the serial one, so reruns reproduce this file at any `-workers` setting\n")
	fmt.Fprintf(&b, "(`internal/workload/parallel_test.go` enforces this).\n\n")

	row := func(metric, paper, measured string, holds bool) {
		mark := "yes"
		if !holds {
			mark = "**NO**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", metric, paper, measured, mark)
	}
	header := func(title string) {
		fmt.Fprintf(&b, "## %s\n\n| metric | paper | measured | shape holds |\n|---|---|---|---|\n", title)
	}
	cal := r.Calibration()
	calRow := func(metric, key, note string) {
		t, _ := paper.TargetFor(key)
		row(metric, report.Pct(t.Paper)+note, report.Pct(cal[key]), t.Contains(cal[key]))
	}

	// ---- Table 1 ----
	header("Table 1 — URL formats")
	okT1 := len(providers.All()) == 10
	row("registered URL formats", "10 (9 providers, Google ×2)", fmt.Sprint(len(providers.All())), okT1)
	row("excluded from collection", "Azure (shared suffix)", fmt.Sprint(9-len(providers.Collected())+1)+" (Azure)", len(providers.Collected()) == 9)
	row("excluded from active probing", "Google, IBM, Oracle, Azure", fmt.Sprint(10-len(providers.Probeable())), len(providers.Probeable()) == 6)
	b.WriteString("\n")

	// ---- Table 2 ----
	header("Table 2 — per-provider usage and resolution")
	rows := analysis.Table2(r.Aggregate)
	domTotal, reqTotal := 0, int64(0)
	for _, t2 := range rows {
		domTotal += t2.Domains
		reqTotal += t2.Requests
	}
	wantDom := int(paper.Domains * scale)
	row("total function domains", fmt.Sprintf("%s×%.3f = %d", report.Count(paper.Domains), scale, wantDom),
		fmt.Sprint(domTotal), within(float64(domTotal), float64(wantDom), 0.10))
	wantReq := paper.Requests * scale
	row("total requests", fmt.Sprintf("%.3fB×%.3f = %.0f", paper.Requests/1e9, scale, wantReq),
		fmt.Sprint(reqTotal), within(float64(reqTotal), wantReq, 0.15))

	var paperRows []analysis.Table2Row
	for id, u := range paper.Table2 {
		paperRows = append(paperRows, analysis.Table2Row{Provider: id, Domains: u.Domains, Requests: u.Requests})
	}
	rankRow := func(metric string, top int, key func(analysis.Table2Row) float64) {
		want := strings.Join(rankProviders(paperRows, key)[:top], " > ")
		got := strings.Join(rankProviders(rows, key)[:top], " > ")
		row(metric, want, got, got == want)
	}
	rankRow("domain-count ranking", 5, func(t analysis.Table2Row) float64 { return float64(t.Domains) })
	rankRow("request-count ranking", 4, func(t analysis.Table2Row) float64 { return float64(t.Requests) })

	for _, t2 := range rows {
		want := paper.Table2[t2.Provider]
		ok := math.Abs(t2.AShare-want.A) < 0.03 && math.Abs(t2.CNAMEShare-want.CNAME) < 0.03 && math.Abs(t2.AAAAShare-want.AAAA) < 0.03
		row(fmt.Sprintf("%s rtype mix (A/CNAME/AAAA)", t2.Provider),
			fmt.Sprintf("%.1f%%/%.1f%%/%.1f%%", want.A*100, want.CNAME*100, want.AAAA*100),
			fmt.Sprintf("%.1f%%/%.1f%%/%.1f%%", t2.AShare*100, t2.CNAMEShare*100, t2.AAAAShare*100), ok)
	}
	awsRow := findRow(rows, providers.AWS)
	aliRow := findRow(rows, providers.Aliyun)
	if awsRow != nil && aliRow != nil {
		row("AWS ingress dispersion (Top10 share)", report.Pct(paper.AWSTop10A)+" (thousands of nodes)",
			fmt.Sprintf("%.1f%% over %d nodes", awsRow.ATop10*100, awsRow.ARData),
			awsRow.ATop10 < 0.5 && awsRow.ARData > 50)
		row("concentrated providers (Aliyun A Top10)", report.Pct(paper.AliyunTop10A),
			fmt.Sprintf("%.1f%%", aliRow.ATop10*100), aliRow.ATop10 > 0.8)
	}
	b.WriteString("\n")

	// ---- Figure 3 ----
	header("Figure 3 — adoption trend")
	monthly := analysis.NewFQDNsByMonth(r.Aggregate)
	apr22 := monthly[0].Value
	var mean12 float64
	for _, p := range monthly[1:13] {
		mean12 += float64(p.Value)
	}
	mean12 /= 12
	row("AWS function-URL launch spike (Apr 2022)", "sharp increase in new FQDNs",
		fmt.Sprintf("Apr-22 = %d vs later-year mean %.0f", apr22, mean12), float64(apr22) > mean12*1.05)
	lastQ := float64(monthly[21].Value+monthly[22].Value+monthly[23].Value) / 3
	firstQ := float64(monthly[0].Value+monthly[1].Value+monthly[2].Value) / 3
	row("overall growth trend", "growing adoption",
		fmt.Sprintf("first-quarter mean %.0f -> last-quarter mean %.0f", firstQ, lastQ), lastQ > firstQ)
	b.WriteString("\n")

	// ---- Figure 4 ----
	header("Figure 4 — invocation trends with provider events")
	trends := analysis.InvocationTrend(r.Aggregate)
	ksStart := firstNonZeroMonth(trends[providers.Kingsoft])
	row("Kingsoft appears Aug 2022", "first resolutions Aug 2022",
		ksStart, ksStart == "2022-08" || ksStart == "2022-09")
	tcStart := firstNonZeroMonth(trends[providers.Tencent])
	row("Tencent appears Aug 2023", "first resolutions Aug 2023",
		tcStart, tcStart == "2023-08" || tcStart == "2023-09")
	tcSeries := trends[providers.Tencent]
	tcDec, tcFeb := monthValue(tcSeries, "2023-12"), monthValue(tcSeries, "2024-02")
	row("Tencent decline after free-quota change (Jan 2024)", "sharp decline",
		fmt.Sprintf("Dec-23 = %d -> Feb-24 = %d", tcDec, tcFeb), tcFeb < tcDec)
	b.WriteString("\n")

	// ---- Figure 5 ----
	header("Figure 5 — per-function invocation distribution")
	calRow("functions invoked <5 times", "frac_under5", "")
	calRow("functions invoked >100 times", "frac_over100", "")
	row("mode of histogram (requests)", fmt.Sprintf("%d–%d requests", paper.ModeLow, paper.ModeHigh),
		fmt.Sprintf("%.1f–%.1f requests", r.Frequency.ModalLow, r.Frequency.ModalHigh),
		r.Frequency.ModalLow >= 1 && r.Frequency.ModalHigh <= 10)
	b.WriteString("\n")

	// ---- §4.3 lifespans ----
	header("§4.3 — lifespan and activity density")
	calRow("single-day lifespan", "single_day_lifespan", "")
	row("lifespan under 5 days", report.Pct(paper.LifespanUnder5Days), report.Pct(r.Lifespan.FracUnder5Days),
		math.Abs(r.Lifespan.FracUnder5Days-paper.LifespanUnder5Days) < 0.03)
	row("mean lifespan (days)", fmt.Sprintf("%.2f", paper.MeanLifespanDays), fmt.Sprintf("%.2f", r.Lifespan.MeanDays),
		math.Abs(r.Lifespan.MeanDays-paper.MeanLifespanDays) < 7)
	calRow("activity density p=1", "density_one_share", "")
	b.WriteString("\n")

	// ---- Figure 6 / §4.4 ----
	header("Figure 6 / §4.4 — active probing")
	calRow("unreachable functions", "unreachable_share", "")
	calRow("DNS failures among unreachable (deleted Tencent)", "dns_failure_share", "")
	calRow("reachable functions answering HTTPS", "https_share", "")
	codes := r.statusShares()
	calRow("HTTP 404 share", "http_404_share", "")
	calRow("HTTP 200 share", "http_200_share", "")
	serverErr := codes[502] + codes[500] + codes[503] + codes[504]
	row("server errors (5xx)", report.Pct(paper.HTTP5xx)+" (AWS most)", report.Pct(serverErr), math.Abs(serverErr-paper.HTTP5xx) < 0.03)
	row("HTTP 401 share", report.Pct(paper.HTTP401), report.Pct(codes[401]), codes[401] < 0.01)
	b.WriteString("\n")

	// ---- §3.4 content analysis ----
	header("§3.4 — content typing and clustering")
	rich := float64(maxI(r.ContentRich, 1))
	row("content-rich responses (non-empty 200s)", fmt.Sprintf("%s×%.3f = %.0f", report.Count(paper.ContentRich), scale, paper.ContentRich*scale),
		fmt.Sprint(r.ContentRich), within(rich, paper.ContentRich*scale, 0.35))
	ctJSON := float64(r.TypeCounts[content.JSON]) / rich
	ctHTML := float64(r.TypeCounts[content.HTML]) / rich
	ctText := float64(r.TypeCounts[content.Plaintext]) / rich
	row("JSON share", report.Pct(paper.JSONShare), report.Pct(ctJSON), math.Abs(ctJSON-paper.JSONShare) < 0.08)
	row("HTML share", report.Pct(paper.HTMLShare), report.Pct(ctHTML), math.Abs(ctHTML-paper.HTMLShare) < 0.08)
	row("Plaintext share", report.Pct(paper.PlaintextShare), report.Pct(ctText), math.Abs(ctText-paper.PlaintextShare) < 0.08)
	row("clusters", fmt.Sprintf("%s×%.3f ≈ %.0f", report.Count(paper.Clusters), scale, paper.Clusters*scale),
		fmt.Sprint(r.TotalClusters), r.TotalClusters > 0 && float64(r.TotalClusters) < rich)
	b.WriteString("\n")

	// ---- §5 secrets ----
	header("§5 — sensitive-data census")
	wantSecrets := paper.Findings * scale
	row("total findings", fmt.Sprintf("%d×%.3f ≈ %.0f", paper.Findings, scale, wantSecrets),
		fmt.Sprint(r.SecretsCensus.Total()), within(float64(r.SecretsCensus.Total()), wantSecrets, 0.5))
	keys, netid, tokens := r.SecretsCensus[secrets.APIKey], r.SecretsCensus[secrets.NetworkID], r.SecretsCensus[secrets.AccessToken]
	row("category ordering", fmt.Sprintf("API keys (%d) > network IDs (%d) > tokens (%d)", paper.APIKeys, paper.NetworkIDs, paper.AccessTokens),
		fmt.Sprintf("keys %d, network %d, tokens %d", keys, netid, tokens),
		keys >= netid && netid >= tokens)
	row("tokens+keys dominate", fmt.Sprintf("%.1f%% of findings", 100*float64(paper.APIKeys+paper.AccessTokens)/paper.Findings),
		report.Pct(float64(tokens+keys)/float64(maxI(r.SecretsCensus.Total(), 1))),
		float64(tokens+keys)/float64(maxI(r.SecretsCensus.Total(), 1)) > 0.4)
	b.WriteString("\n")

	// ---- Table 3 ----
	header("Table 3 — abuse cases")
	for _, cs := range r.AbuseReport.ByCase {
		want := paper.Table3[cs.Case]
		wantFns := scaleFloor(want.Functions, scale)
		ok := within(float64(cs.Functions), wantFns, 0.5) || math.Abs(float64(cs.Functions)-wantFns) <= 2
		row(cs.Case.String(),
			fmt.Sprintf("%d fns / %s req (×%.3f: %.0f fns)", want.Functions, report.Count(want.Requests), scale, wantFns),
			fmt.Sprintf("%d fns / %s req", cs.Functions, report.Count(cs.Requests)), ok)
	}
	row("total abused functions", fmt.Sprintf("%d×%.3f ≈ %.0f", paper.AbuseFunctions, scale, paper.AbuseFunctions*scale),
		fmt.Sprint(r.AbuseReport.TotalFunctions()),
		within(float64(r.AbuseReport.TotalFunctions()), paper.AbuseFunctions*scale, 0.4))
	calRow("abuse rate", "abuse_rate", " of content-rich")
	row("total abuse requests", fmt.Sprintf("%s×%.3f ≈ %.0f", report.Count(paper.AbuseRequests), scale, paper.AbuseRequests*scale),
		report.Count(r.AbuseReport.TotalRequests()),
		within(float64(r.AbuseReport.TotalRequests()), paper.AbuseRequests*scale, 0.5))
	if len(r.ResaleGroups) > 0 {
		top := r.ResaleGroups[0]
		resaleTotal := r.AbuseReport.ByCase[abuse.CaseOpenAIResale].Functions
		paperResale := paper.Table3[abuse.CaseOpenAIResale].Functions
		row("largest resale group share", fmt.Sprintf("%d/%d = %.1f%% behind one WeChat",
			paper.ResaleBiggestGroup, paperResale, 100*float64(paper.ResaleBiggestGroup)/float64(paperResale)),
			fmt.Sprintf("%d/%d behind %s", len(top.Functions), resaleTotal, top.Contact),
			resaleTotal > 0 && float64(len(top.Functions))/float64(resaleTotal) > 0.4)
	}
	b.WriteString("\n")

	// ---- §5.1 C2 + §5.5 TI ----
	header("§5.1 / §5.5 — C2 detection and the defence gap")
	paperC2 := paper.Table3[abuse.CaseC2].Functions
	if r.Config.SkipC2Scan {
		row("C2 fingerprint sweep", fmt.Sprintf("%d relays, Cobalt Strike + InfoStealer", paperC2), "skipped in this run", true)
	} else {
		hosts := dedupHosts(r)
		fams := map[string]bool{}
		for _, d := range r.C2Detections {
			fams[d.Family] = true
		}
		wantC2 := scaleFloor(paperC2, scale)
		row("C2 relays detected", fmt.Sprintf("%d×%.3f ≈ %.0f", paperC2, scale, wantC2),
			fmt.Sprint(len(hosts)), within(float64(len(hosts)), wantC2, 0.6) || math.Abs(float64(len(hosts))-wantC2) <= 2)
		row("families observed", "Cobalt Strike-like, InfoStealer-like",
			fmt.Sprint(sortedKeys(fams)), fams["coboltstrike-like"])
		row("TI flagged abused functions",
			fmt.Sprintf("%d of %d (%s)", paper.TIFlagged, paper.AbuseFunctions, report.Pct(float64(paper.TIFlagged)/paper.AbuseFunctions)),
			fmt.Sprintf("%d of %d (%s)", r.TICoverage.Flagged, r.TICoverage.Total, report.Pct(r.TICoverage.Rate())),
			r.TICoverage.Flagged <= paper.TIFlagged && r.TICoverage.Rate() < 0.2)
	}
	b.WriteString("\n")

	// ---- Figure 7 ----
	header("Figure 7 — OpenAI key-resale trend")
	resaleMonths := r.resaleActivityMonths()
	first, last := "", ""
	if len(resaleMonths) > 0 {
		first, last = resaleMonths[0], resaleMonths[len(resaleMonths)-1]
	}
	row("campaign start", "Jan 2023 (2 months after ChatGPT)", first,
		first == "2023-01" || first == "2023-02")
	row("campaign cools down", "after May 2023", last,
		last != "" && last <= "2023-07")
	b.WriteString("\n")

	b.WriteString("---\n\nRegenerate with `go run ./cmd/scfexperiments -scale " +
		fmt.Sprintf("%.2f", scale) + "`. Absolute counts scale with the population\n" +
		"fraction; proportions, orderings and crossover months are scale-invariant.\n")
	return b.String()
}

// statusShares computes the per-code share of reachable probe results.
func (r *Results) statusShares() map[int]float64 {
	counts := map[int]int{}
	reachable := 0
	for i := range r.ProbeResults {
		if r.ProbeResults[i].Reachable {
			reachable++
			counts[r.ProbeResults[i].Status]++
		}
	}
	out := map[int]float64{}
	for code, n := range counts {
		out[code] = float64(n) / float64(maxI(reachable, 1))
	}
	return out
}

// resaleActivityMonths lists the months with resale-cohort activity.
func (r *Results) resaleActivityMonths() []string {
	months := map[pdns.Date]bool{}
	for fqdn, c := range r.AbuseReport.Assigned {
		if c != abuse.CaseOpenAIResale {
			continue
		}
		if fs := r.Aggregate.ByFQDN[fqdn]; fs != nil {
			months[fs.FirstSeenAll.Month()] = true
			months[fs.LastSeenAll.Month()] = true
		}
	}
	var out []string
	for m := range months {
		out = append(out, m.String()[:7])
	}
	sort.Strings(out)
	return out
}

func rankProviders(rows []analysis.Table2Row, key func(analysis.Table2Row) float64) []string {
	sorted := append([]analysis.Table2Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	out := make([]string, len(sorted))
	for i, t := range sorted {
		out[i] = t.Provider.String()
	}
	return out
}

func findRow(rows []analysis.Table2Row, id providers.ID) *analysis.Table2Row {
	for i := range rows {
		if rows[i].Provider == id {
			return &rows[i]
		}
	}
	return nil
}

func firstNonZeroMonth(s analysis.MonthlySeries) string {
	for _, p := range s {
		if p.Value > 0 {
			return p.Month.String()[:7]
		}
	}
	return "never"
}

func monthValue(s analysis.MonthlySeries, month string) int64 {
	for _, p := range s {
		if p.Month.String()[:7] == month {
			return p.Value
		}
	}
	return 0
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := (got - want) / want
	return d > -tol && d < tol
}

// scaleFloor scales a paper count with the generator's min-1 floor.
func scaleFloor(n int, scale float64) float64 {
	s := float64(n) * scale
	if s < 1 {
		return 1
	}
	return s
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
