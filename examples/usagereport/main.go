// Usage report: reproduce the paper's §4 usage analysis — identification
// from passive DNS, adoption trends, invocation distribution, and lifespan
// statistics — without any active probing. This is the workload a PDNS
// operator could run entirely offline.
package main

import (
	"fmt"
	"log"

	divecloud "repro"

	"repro/internal/analysis"
	"repro/internal/paper"
	"repro/internal/pdns"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	const (
		seed  = 7
		scale = 0.01
	)

	// Stream the two-year synthetic PDNS feed straight into the aggregator
	// (paper §3.2): nothing is ever resident but the per-FQDN rollups.
	w := workload.Window()
	agg := pdns.NewAggregator(nil, w.Start, w.End)
	var records int64
	err := divecloud.GeneratePDNS(seed, scale, func(r *divecloud.Record) error {
		agg.Add(r)
		records++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	ag := agg.Finish()
	fmt.Printf("scanned %s PDNS records -> %s function domains, %s requests\n\n",
		report.Count(records),
		report.Count(int64(ag.TotalDomains())),
		report.Count(ag.TotalRequests()))

	// Figure 3: adoption trend.
	monthly := analysis.NewFQDNsByMonth(ag)
	fig := report.NewFigure("Monthly newly observed function FQDNs (Figure 3)")
	var pts []report.Point
	for _, p := range monthly {
		pts = append(pts, report.Point{Label: p.Month.String()[:7], Value: float64(p.Value)})
	}
	fig.Add("new FQDNs", pts)
	for _, ev := range analysis.Events() {
		fig.Annotate(ev.Month.String()[:7], ev.Label)
	}
	fmt.Println(fig.String())

	// §4.3: invocation distribution and lifespans over functions whose
	// domain uniquely identifies one function (Google/IBM/Oracle excluded).
	perFn := ag.PerFunctionStats()
	freq := analysis.Frequency(perFn)
	life := analysis.Lifespan(perFn, w)
	fmt.Printf("functions analysed: %d\n", freq.Functions)
	fmt.Printf("invoked <5 times: %s (paper: %s)\n", report.Pct(freq.FracUnder5), report.Pct(paper.FracUnder5))
	fmt.Printf("invoked >100 times: %s (paper: %s)\n", report.Pct(freq.FracOver100), report.Pct(paper.FracOver100))
	fmt.Printf("single-day lifespan: %s (paper: %s)\n", report.Pct(life.FracSingleDay), report.Pct(paper.SingleDayLifespan))
	fmt.Printf("lifespan <5 days: %s (paper: %s)\n", report.Pct(life.FracUnder5Days), report.Pct(paper.LifespanUnder5Days))
	fmt.Printf("mean lifespan: %.2f days (paper: %.2f)\n", life.MeanDays, paper.MeanLifespanDays)
	fmt.Printf("activity density p=1: %s (paper: %s)\n", report.Pct(life.FracDensityOne), report.Pct(paper.DensityOne))

	// Table 2 rollup.
	fmt.Println()
	t := report.NewTable("Per-provider usage (Table 2)", "Provider", "Domains", "Requests", "Regions", "A%", "CNAME%", "AAAA%")
	for _, row := range analysis.Table2(ag) {
		t.AddRow(row.Provider.String(), row.Domains, report.Count(row.Requests), row.Regions,
			report.Pct(row.AShare), report.Pct(row.CNAMEShare), report.Pct(row.AAAAShare))
	}
	fmt.Println(t.String())
}
