package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/runs"
)

// Calibration computes the run's scale-invariant shares under the names
// paper.Targets audits. RenderExperiments and the gate both judge these
// shares against the same bands, so a calibration gate failure and a
// "**NO**" row in EXPERIMENTS.md always agree. Shares are pure functions of seed/config/workers, which keeps the
// archive's deterministic half deterministic.
func (r *Results) Calibration() map[string]float64 {
	codes := r.statusShares()
	return map[string]float64{
		"unreachable_share":   float64(r.ProbeStats.Unreachable) / float64(maxI(r.ProbeStats.Probed, 1)),
		"dns_failure_share":   float64(r.ProbeStats.DNSFailures) / float64(maxI(r.ProbeStats.Unreachable, 1)),
		"https_share":         float64(r.ProbeStats.HTTPSOnly) / float64(maxI(r.ProbeStats.Reachable, 1)),
		"http_404_share":      codes[404],
		"http_200_share":      codes[200],
		"single_day_lifespan": r.Lifespan.FracSingleDay,
		"density_one_share":   r.Lifespan.FracDensityOne,
		"frac_under5":         r.Frequency.FracUnder5,
		"frac_over100":        r.Frequency.FracOver100,
		"abuse_rate":          r.AbuseReport.AbuseRate(),
	}
}

// BuildArchive assembles the run's persistent archive record: the
// deterministic summary (config meta, degradations, calibration shares,
// artifact contents), the machine-varying timings (flattened stage
// wall/CPU, final metric snapshot with its labeled vectors, SLO health
// evaluation), the full manifest, the span trace, and the event log the run
// emitted into. runs.Write persists the result. Labeled snapshots and
// health stay strictly on the timings side: the summary — and therefore the
// run ID and the golden baseline's fingerprints — is untouched by them.
// It requires a completed run — partial Results from an aborted RunContext
// are missing the analysis products the calibration and artifacts read.
func (r *Results) BuildArchive(tool string, events *obs.EventLog) *runs.Archive {
	return &runs.Archive{
		Summary: runs.Summary{
			Tool:         tool,
			Meta:         r.configMeta(),
			Degradations: summaryDegradations(r.Degradations),
			Calibration:  r.Calibration(),
		},
		Timings: runs.Timings{
			CreatedAt:   time.Now().UTC().Format(time.RFC3339),
			ElapsedNS:   r.Elapsed.Nanoseconds(),
			Stages:      obs.FlattenStages(r.Stages),
			Metrics:     r.Metrics.Snapshot(),
			Health:      r.Health,
			Resources:   r.Resources,
			Checkpoints: r.Recovery,
		},
		Manifest: r.Manifest(tool),
		Events:   events,
		Trace:    r.Stages,
		Profiles: r.Profiles,
		Timeline: r.Timeline,
		Artifacts: map[string]string{
			"table2.txt":      r.RenderTable2(),
			"table3.txt":      r.RenderTable3(),
			"fig3.txt":        r.RenderFigure3(),
			"fig4.txt":        r.RenderFigure4(),
			"fig5.txt":        r.RenderFigure5(),
			"disclosures.txt": r.RenderDisclosures(),
		},
	}
}

// summaryDegradations strips the recovery rows out of the deterministic
// summary: being killed and resumed (or failing a checkpoint write) is a
// circumstance of one invocation, not a property of the measurement, and the
// byte-identity guarantee demands a resumed run's summary.json equal the
// uninterrupted one's. The rows still reach stdout, the manifest, and the
// event log via Results.Degradations.
func summaryDegradations(ds []obs.Degradation) []obs.Degradation {
	var out []obs.Degradation
	for _, d := range ds {
		switch d.Kind {
		case "recovery-resumed", "checkpoint-write-errors":
			continue
		}
		out = append(out, d)
	}
	return out
}
