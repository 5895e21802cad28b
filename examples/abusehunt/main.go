// Abuse hunt: deploy the simulated fleet behind a real HTTP edge, probe it
// with the ethical prober, sanitise the responses, and classify the four
// abuse scenarios of paper §5 — then show the resale-group clustering and
// the threat-intelligence gap.
package main

import (
	"fmt"
	"log"
	"time"

	divecloud "repro"

	"repro/internal/abuse"
	"repro/internal/paper"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	res, err := divecloud.Run(divecloud.Config{
		Seed:         11,
		Scale:        0.02, // ≈10,600 function domains, ≈12 abusive
		SkipC2Scan:   true,
		ProbeTimeout: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(res.RenderTable3())

	// Which classifier evidence led to each verdict?
	fmt.Println("Sample verdicts with evidence:")
	shown := 0
	for fqdn, vs := range res.Verdicts {
		v, _ := abuse.Primary(vs)
		fmt.Printf("  %-60s %-24s %v\n", fqdn, v.Case, v.Evidence)
		if len(v.Targets) > 0 {
			fmt.Printf("  %-60s -> redirect targets: %v\n", "", v.Targets)
		}
		shown++
		if shown >= 8 {
			break
		}
	}

	// Group affiliation via shared contact handles (§5.3).
	fmt.Println("\nResale groups (shared contact handles):")
	for _, g := range res.ResaleGroups {
		fmt.Printf("  %-28s %d functions\n", g.Contact, len(g.Functions))
	}

	// Finding 10: threat intelligence barely knows about any of it.
	fmt.Printf("\nThreat-intel coverage: %d/%d abused functions flagged (%s; paper: %d/%d = %s)\n",
		res.TICoverage.Flagged, res.TICoverage.Total, report.Pct(res.TICoverage.Rate()),
		paper.TIFlagged, paper.AbuseFunctions, report.Pct(float64(paper.TIFlagged)/paper.AbuseFunctions))

	// Sensitive-data exposure from unauthorised access (§5).
	fmt.Printf("\nSensitive findings in public responses: %d total\n", res.SecretsCensus.Total())
	fmt.Printf("probe campaign: %d probed, %d unreachable, %d via HTTPS\n",
		res.ProbeStats.Probed, res.ProbeStats.Unreachable, res.ProbeStats.HTTPSOnly)
}
