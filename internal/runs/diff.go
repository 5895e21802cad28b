package runs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/report"
)

// StageDelta compares one stage's wall/CPU time across two runs. A path
// present in only one run carries -1 in the missing side.
type StageDelta struct {
	Path    string `json:"path"`
	AWallNS int64  `json:"a_wall_ns"`
	BWallNS int64  `json:"b_wall_ns"`
	ACPUNS  int64  `json:"a_cpu_ns"`
	BCPUNS  int64  `json:"b_cpu_ns"`
}

// WallRatio returns B's wall time as a multiple of A's (1.0 = unchanged),
// or 0 when either side is missing or A took no measurable time.
func (d StageDelta) WallRatio() float64 {
	if d.AWallNS <= 0 || d.BWallNS < 0 {
		return 0
	}
	return float64(d.BWallNS) / float64(d.AWallNS)
}

// HistDelta compares one latency histogram's p50/p99 across two runs.
// Clamped means the p99 rank fell in the +Inf overflow bucket, so the
// reported value is a floor, not an estimate.
type HistDelta struct {
	Name     string  `json:"name"`
	ACount   int64   `json:"a_count,omitempty"`
	BCount   int64   `json:"b_count,omitempty"`
	AP50     float64 `json:"a_p50,omitempty"`
	BP50     float64 `json:"b_p50,omitempty"`
	AP99     float64 `json:"a_p99,omitempty"`
	BP99     float64 `json:"b_p99,omitempty"`
	AClamped bool    `json:"a_clamped,omitempty"`
	BClamped bool    `json:"b_clamped,omitempty"`
}

// ThroughputDelta compares one derived per-second rate across two runs.
type ThroughputDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a,omitempty"`
	B    float64 `json:"b,omitempty"`
}

// ProviderDelta compares one provider's probe health across two runs,
// derived from the labeled vectors in the timings snapshot: the error rate
// from probe_outcomes_total{provider,outcome,attempt_class} (share of
// probes with a non-ok outcome) and the request p99 from the provider's
// probe_request_seconds series. A side archived before the dimensional
// layer existed has Has=false and is reported but never gated.
type ProviderDelta struct {
	Provider string  `json:"provider"`
	HasA     bool    `json:"has_a"`
	HasB     bool    `json:"has_b"`
	AProbes  int64   `json:"a_probes,omitempty"`
	BProbes  int64   `json:"b_probes,omitempty"`
	AErrRate float64 `json:"a_err_rate,omitempty"`
	BErrRate float64 `json:"b_err_rate,omitempty"`
	ALatN    int64   `json:"a_lat_n,omitempty"`
	BLatN    int64   `json:"b_lat_n,omitempty"`
	AP99     float64 `json:"a_p99,omitempty"`
	BP99     float64 `json:"b_p99,omitempty"`
	AClamped bool    `json:"a_clamped,omitempty"`
	BClamped bool    `json:"b_clamped,omitempty"`
}

// DegradationDelta compares one absorbed-failure class across two runs.
type DegradationDelta struct {
	Stage string `json:"stage"`
	Kind  string `json:"kind"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
}

// ArtifactDelta compares one emitted artifact's fingerprint across runs.
type ArtifactDelta struct {
	Name          string `json:"name"`
	A             string `json:"a,omitempty"`
	B             string `json:"b,omitempty"`
	Match         bool   `json:"match"`
	Deterministic bool   `json:"deterministic"`
}

// CalibrationDelta compares one calibration share across two runs and
// against the paper's published target (when one exists for the key).
type CalibrationDelta struct {
	Name      string  `json:"name"`
	Paper     float64 `json:"paper,omitempty"`
	HasTarget bool    `json:"has_target"`
	A         float64 `json:"a,omitempty"`
	B         float64 `json:"b,omitempty"`
	HasA      bool    `json:"has_a,omitempty"`
	HasB      bool    `json:"has_b,omitempty"`
	AOK       bool    `json:"a_ok"`
	BOK       bool    `json:"b_ok"`
}

// Report is the full structured comparison of two run archives. A is the
// baseline ("old"), B the candidate ("new").
type Report struct {
	AID          string             `json:"a_id"`
	BID          string             `json:"b_id"`
	ADir         string             `json:"a_dir,omitempty"`
	BDir         string             `json:"b_dir,omitempty"`
	ConfigMatch  bool               `json:"config_match"`
	AElapsedNS   int64              `json:"a_elapsed_ns"`
	BElapsedNS   int64              `json:"b_elapsed_ns"`
	Stages       []StageDelta       `json:"stages,omitempty"`
	Histograms   []HistDelta        `json:"histograms,omitempty"`
	Providers    []ProviderDelta    `json:"providers,omitempty"`
	Throughput   []ThroughputDelta  `json:"throughput,omitempty"`
	Degradations []DegradationDelta `json:"degradations,omitempty"`
	Artifacts    []ArtifactDelta    `json:"artifacts,omitempty"`
	Calibration  []CalibrationDelta `json:"calibration,omitempty"`
}

// throughputSpecs derive per-second rates from (metric, stage wall) pairs:
// the substrate-scan rate of the identify stage, the probe sweep rate, and
// the fingerprint-sweep rate.
var throughputSpecs = []struct {
	name    string
	counter string // counter metric, or ""
	hist    string // histogram whose Count is the numerator, when counter == ""
	stage   string
}{
	{name: "identify_records_per_s", counter: "pdns_records_scanned_total", stage: "identify"},
	{name: "probe_requests_per_s", hist: "probe_request_seconds", stage: "probe"},
	{name: "c2_probes_per_s", counter: "c2_probes_total", stage: "classify/c2-sweep"},
}

// Diff compares baseline a against candidate b dimension by dimension.
func Diff(a, b *Record) *Report {
	r := &Report{
		AID: a.Summary.ID, BID: b.Summary.ID,
		ADir: a.Dir, BDir: b.Dir,
		ConfigMatch: a.Summary.ConfigHash == b.Summary.ConfigHash,
		AElapsedNS:  a.Timings.ElapsedNS,
		BElapsedNS:  b.Timings.ElapsedNS,
	}

	// Stages, in A's order; B-only paths appended after.
	seen := map[string]bool{}
	for _, st := range a.Timings.Stages {
		seen[st.Path] = true
		d := StageDelta{Path: st.Path, AWallNS: st.WallNS, ACPUNS: st.CPUNS, BWallNS: -1, BCPUNS: -1}
		if bs := b.Timings.Stage(st.Path); bs != nil {
			d.BWallNS, d.BCPUNS = bs.WallNS, bs.CPUNS
		}
		r.Stages = append(r.Stages, d)
	}
	for _, st := range b.Timings.Stages {
		if !seen[st.Path] {
			r.Stages = append(r.Stages, StageDelta{Path: st.Path, AWallNS: -1, ACPUNS: -1, BWallNS: st.WallNS, BCPUNS: st.CPUNS})
		}
	}

	// Latency histograms present in either run.
	for _, name := range unionKeys(histNames(a), histNames(b)) {
		ha, okA := a.Timings.Metrics.Histograms[name]
		hb, okB := b.Timings.Metrics.Histograms[name]
		if (!okA || ha.Count == 0) && (!okB || hb.Count == 0) {
			continue
		}
		d := HistDelta{Name: name, ACount: ha.Count, BCount: hb.Count}
		d.AP50, _ = ha.QuantileClamped(0.5)
		d.BP50, _ = hb.QuantileClamped(0.5)
		d.AP99, d.AClamped = ha.QuantileClamped(0.99)
		d.BP99, d.BClamped = hb.QuantileClamped(0.99)
		r.Histograms = append(r.Histograms, d)
	}

	// Derived throughput rates.
	for _, spec := range throughputSpecs {
		ra := rate(a, spec.counter, spec.hist, spec.stage)
		rb := rate(b, spec.counter, spec.hist, spec.stage)
		if ra == 0 && rb == 0 {
			continue
		}
		r.Throughput = append(r.Throughput, ThroughputDelta{Name: spec.name, A: ra, B: rb})
	}

	// Per-provider probe health from the labeled vectors.
	pa, pb := providerStats(a), providerStats(b)
	for _, name := range unionKeys(pa, pb) {
		sa, okA := pa[name]
		sb, okB := pb[name]
		d := ProviderDelta{Provider: name, HasA: okA, HasB: okB}
		if okA {
			d.AProbes, d.AErrRate, d.ALatN = sa.probes, sa.errRate(), sa.latN
			d.AP99, d.AClamped = sa.p99, sa.clamped
		}
		if okB {
			d.BProbes, d.BErrRate, d.BLatN = sb.probes, sb.errRate(), sb.latN
			d.BP99, d.BClamped = sb.p99, sb.clamped
		}
		r.Providers = append(r.Providers, d)
	}

	// Degradation drift: union of (stage, kind) rows.
	type dk struct{ stage, kind string }
	counts := map[dk][2]int64{}
	var order []dk
	for _, d := range a.Summary.Degradations {
		k := dk{d.Stage, d.Kind}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		c := counts[k]
		c[0] += d.Count
		counts[k] = c
	}
	for _, d := range b.Summary.Degradations {
		k := dk{d.Stage, d.Kind}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		c := counts[k]
		c[1] += d.Count
		counts[k] = c
	}
	for _, k := range order {
		c := counts[k]
		r.Degradations = append(r.Degradations, DegradationDelta{Stage: k.stage, Kind: k.kind, A: c[0], B: c[1]})
	}

	// Artifact fingerprints.
	for _, name := range unionKeys(a.Summary.Artifacts, b.Summary.Artifacts) {
		fa, fb := a.Summary.Artifacts[name], b.Summary.Artifacts[name]
		r.Artifacts = append(r.Artifacts, ArtifactDelta{
			Name: name, A: fa, B: fb,
			Match:         fa != "" && fa == fb,
			Deterministic: DeterministicArtifacts[name],
		})
	}

	// Calibration against the paper.
	for _, name := range unionKeys(a.Summary.Calibration, b.Summary.Calibration) {
		va, okA := a.Summary.Calibration[name]
		vb, okB := b.Summary.Calibration[name]
		d := CalibrationDelta{Name: name, A: va, B: vb, HasA: okA, HasB: okB}
		if t, ok := paper.TargetFor(name); ok {
			d.Paper, d.HasTarget = t.Paper, true
			d.AOK = okA && t.Contains(va)
			d.BOK = okB && t.Contains(vb)
		}
		r.Calibration = append(r.Calibration, d)
	}
	return r
}

func histNames(r *Record) map[string]obs.HistogramSnapshot { return r.Timings.Metrics.Histograms }

// providerSide is one run's per-provider probe health, reduced from the
// labeled vectors of its final metric snapshot.
type providerSide struct {
	probes  int64 // all probe_outcomes_total series for the provider
	errs    int64 // probes minus the outcome="ok" share
	latN    int64
	p99     float64
	clamped bool
}

func (s providerSide) errRate() float64 {
	if s.probes == 0 {
		return 0
	}
	return float64(s.errs) / float64(s.probes)
}

// providerStats reduces a record's probe_outcomes_total and
// probe_request_seconds vectors to per-provider health. Records archived
// before the dimensional metrics layer return an empty map.
func providerStats(r *Record) map[string]providerSide {
	out := map[string]providerSide{}
	if ov, ok := r.Timings.Metrics.CounterVecs["probe_outcomes_total"]; ok {
		total := ov.SumBy("provider", nil)
		okOnly := ov.SumBy("provider", map[string]string{"outcome": "ok"})
		for name, n := range total {
			s := out[name]
			s.probes = n
			s.errs = n - okOnly[name]
			out[name] = s
		}
	}
	if hv, ok := r.Timings.Metrics.HistogramVecs["probe_request_seconds"]; ok {
		for name, h := range hv.MergeBy("provider", nil) {
			s := out[name]
			s.latN = h.Count
			s.p99, s.clamped = h.QuantileClamped(0.99)
			out[name] = s
		}
	}
	return out
}

func rate(r *Record, counter, hist, stage string) float64 {
	st := r.Timings.Stage(stage)
	if st == nil || st.WallNS <= 0 {
		return 0
	}
	var n int64
	if counter != "" {
		n = r.Timings.Metrics.Counters[counter]
	} else if h, ok := r.Timings.Metrics.Histograms[hist]; ok {
		n = h.Count
	}
	if n == 0 {
		return 0
	}
	return float64(n) / (float64(st.WallNS) / float64(time.Second))
}

func unionKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GateOptions are the regression thresholds Gate applies to a diff report.
// Timing gates are ratio thresholds with absolute floors, so microsecond
// stages can't trip a percentage check on scheduler noise.
type GateOptions struct {
	// WallTol flags a stage when BWall > AWall*(1+WallTol) and the delta
	// exceeds WallFloor. Negative disables the timing gate.
	WallTol   float64
	WallFloor time.Duration
	// P99Tol flags a histogram when Bp99 > Ap99*(1+P99Tol), both sides
	// have at least MinSamples observations, and neither p99 is clamped
	// (a clamped p99 is a floor, not an estimate — it is warned about but
	// cannot prove a regression). Negative disables.
	P99Tol     float64
	MinSamples int64
	// ErrRateTol flags a provider whose probe error rate grew by more than
	// this absolute amount over the baseline (both sides need vector data
	// and at least MinSamples probes for the provider). The same P99Tol /
	// MinSamples / clamp rules as the global histogram gate govern the
	// per-provider p99 check. Negative disables both provider gates.
	ErrRateTol float64
	// Degradations flags new degradation kinds and counts growing past
	// 2×A+10 — under a seeded chaos profile both runs see the same
	// schedule, so drift means behaviour changed.
	Degradations bool
	// Artifacts flags fingerprint mismatches on deterministic artifacts.
	Artifacts bool
	// Calibration flags candidate values outside the paper's bands.
	Calibration bool
}

// DefaultGateOptions are the thresholds `scfruns gate` starts from.
func DefaultGateOptions() GateOptions {
	return GateOptions{
		WallTol:      0.75,
		WallFloor:    500 * time.Millisecond,
		P99Tol:       1.0,
		MinSamples:   50,
		ErrRateTol:   0.02,
		Degradations: true,
		Artifacts:    true,
		Calibration:  true,
	}
}

// Gate audits the report against the thresholds and returns one line per
// violation; empty means the candidate passes.
func (r *Report) Gate(o GateOptions) []string {
	var v []string
	if !r.ConfigMatch {
		v = append(v, fmt.Sprintf("config mismatch: %s vs %s — timing comparison is apples to oranges", r.AID, r.BID))
	}
	if o.WallTol >= 0 {
		for _, d := range r.Stages {
			if d.AWallNS < 0 || d.BWallNS < 0 {
				continue
			}
			delta := time.Duration(d.BWallNS - d.AWallNS)
			if delta > o.WallFloor && float64(d.BWallNS) > float64(d.AWallNS)*(1+o.WallTol) {
				v = append(v, fmt.Sprintf("stage %s wall regressed: %v -> %v (%.2fx, tol %.2fx)",
					d.Path, time.Duration(d.AWallNS).Round(time.Millisecond),
					time.Duration(d.BWallNS).Round(time.Millisecond), d.WallRatio(), 1+o.WallTol))
			}
		}
	}
	if o.P99Tol >= 0 {
		for _, h := range r.Histograms {
			if h.ACount < o.MinSamples || h.BCount < o.MinSamples {
				continue
			}
			if h.AClamped || h.BClamped {
				continue // warned in Render; a floor can't prove a regression
			}
			if h.AP99 > 0 && h.BP99 > h.AP99*(1+o.P99Tol) {
				v = append(v, fmt.Sprintf("histogram %s p99 regressed: %.4gs -> %.4gs (tol %.2fx)",
					h.Name, h.AP99, h.BP99, 1+o.P99Tol))
			}
		}
	}
	if o.ErrRateTol >= 0 {
		for _, p := range r.Providers {
			if !p.HasA || !p.HasB {
				continue // one side predates the dimensional layer
			}
			if p.AProbes >= o.MinSamples && p.BProbes >= o.MinSamples &&
				p.BErrRate > p.AErrRate+o.ErrRateTol {
				v = append(v, fmt.Sprintf("provider %s error rate regressed: %.4f -> %.4f (tol +%.4f)",
					p.Provider, p.AErrRate, p.BErrRate, o.ErrRateTol))
			}
			if o.P99Tol >= 0 && p.ALatN >= o.MinSamples && p.BLatN >= o.MinSamples &&
				!p.AClamped && !p.BClamped && p.AP99 > 0 && p.BP99 > p.AP99*(1+o.P99Tol) {
				v = append(v, fmt.Sprintf("provider %s probe p99 regressed: %.4gs -> %.4gs (tol %.2fx)",
					p.Provider, p.AP99, p.BP99, 1+o.P99Tol))
			}
		}
	}
	if o.Degradations {
		for _, d := range r.Degradations {
			switch {
			case d.A == 0 && d.B > 0:
				v = append(v, fmt.Sprintf("new degradation %s/%s: 0 -> %d", d.Stage, d.Kind, d.B))
			case d.B > d.A*2+10:
				v = append(v, fmt.Sprintf("degradation %s/%s grew: %d -> %d", d.Stage, d.Kind, d.A, d.B))
			}
		}
	}
	if o.Artifacts {
		for _, a := range r.Artifacts {
			if a.Deterministic && !a.Match {
				v = append(v, fmt.Sprintf("deterministic artifact %s fingerprint changed (%.12s -> %.12s)", a.Name, a.A, a.B))
			}
		}
	}
	if o.Calibration {
		for _, c := range r.Calibration {
			if c.HasTarget && c.HasB && !c.BOK {
				v = append(v, fmt.Sprintf("calibration %s drifted from paper: measured %.4f, published %.4f", c.Name, c.B, c.Paper))
			}
		}
	}
	return v
}

// Render formats the report for humans: one table per dimension, then a
// one-line verdict hint. scfruns diff prints exactly this.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run diff: %s (baseline) vs %s (candidate)\n", r.AID, r.BID)
	if !r.ConfigMatch {
		b.WriteString("NOTE: configs differ — timing deltas compare different experiments\n")
	}
	fmt.Fprintf(&b, "elapsed: %v -> %v\n\n",
		time.Duration(r.AElapsedNS).Round(time.Millisecond),
		time.Duration(r.BElapsedNS).Round(time.Millisecond))

	st := report.NewTable("Per-stage wall/CPU", "Stage", "Wall A", "Wall B", "xWall", "CPU A", "CPU B")
	for _, d := range r.Stages {
		ratio := "-"
		if rr := d.WallRatio(); rr > 0 {
			ratio = fmt.Sprintf("%.2fx", rr)
		}
		st.AddRow(d.Path, fmtNS(d.AWallNS), fmtNS(d.BWallNS), ratio, fmtNS(d.ACPUNS), fmtNS(d.BCPUNS))
	}
	b.WriteString(st.String())
	b.WriteString("\n")

	if len(r.Histograms) > 0 {
		ht := report.NewTable("Latency quantiles", "Histogram", "n A", "n B", "p50 A", "p50 B", "p99 A", "p99 B", "Clamped")
		for _, h := range r.Histograms {
			clamp := ""
			if h.AClamped || h.BClamped {
				clamp = "p99 at bucket ceiling (floor only)"
			}
			ht.AddRow(h.Name, h.ACount, h.BCount,
				fmtSec(h.AP50), fmtSec(h.BP50), fmtSec(h.AP99), fmtSec(h.BP99), clamp)
		}
		b.WriteString(ht.String())
		b.WriteString("\n")
	}

	if len(r.Providers) > 0 {
		pt := report.NewTable("Per-provider probe health", "Provider", "Probes A", "Probes B", "Err A", "Err B", "p99 A", "p99 B")
		for _, p := range r.Providers {
			pt.AddRow(p.Provider,
				fmtProbeN(p.AProbes, p.HasA), fmtProbeN(p.BProbes, p.HasB),
				fmtRate(p.AErrRate, p.HasA), fmtRate(p.BErrRate, p.HasB),
				fmtSec(p.AP99), fmtSec(p.BP99))
		}
		b.WriteString(pt.String())
		b.WriteString("\n")
	}

	if len(r.Throughput) > 0 {
		tt := report.NewTable("Throughput", "Rate", "A", "B")
		for _, t := range r.Throughput {
			tt.AddRow(t.Name, fmt.Sprintf("%.0f/s", t.A), fmt.Sprintf("%.0f/s", t.B))
		}
		b.WriteString(tt.String())
		b.WriteString("\n")
	}

	if len(r.Degradations) > 0 {
		dt := report.NewTable("Degradation drift", "Stage", "Kind", "A", "B")
		for _, d := range r.Degradations {
			dt.AddRow(d.Stage, d.Kind, d.A, d.B)
		}
		b.WriteString(dt.String())
		b.WriteString("\n")
	}

	if len(r.Artifacts) > 0 {
		at := report.NewTable("Artifact fingerprints", "Artifact", "Match", "Gated", "A", "B")
		for _, a := range r.Artifacts {
			match := "DIFFER"
			if a.Match {
				match = "equal"
			}
			gated := ""
			if a.Deterministic {
				gated = "yes"
			}
			at.AddRow(a.Name, match, gated, ShortHash(a.A), ShortHash(a.B))
		}
		b.WriteString(at.String())
		b.WriteString("\n")
	}

	if len(r.Calibration) > 0 {
		ct := report.NewTable("Calibration vs paper", "Metric", "Paper", "A", "B", "B holds")
		for _, c := range r.Calibration {
			paper, holds := "-", "-"
			if c.HasTarget {
				paper = fmt.Sprintf("%.4f", c.Paper)
				holds = "yes"
				if c.HasB && !c.BOK {
					holds = "**NO**"
				}
			}
			ct.AddRow(c.Name, paper, fmtCal(c.A, c.HasA), fmtCal(c.B, c.HasB), holds)
		}
		b.WriteString(ct.String())
	}
	return b.String()
}

// fmtNS renders a stage duration; "-" marks a stage missing from one run
// (-1) and a child span, which records no CPU (0).
func fmtNS(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	// "µs" -> "us" keeps the table's byte-width alignment intact.
	return strings.ReplaceAll(time.Duration(ns).Round(10*time.Microsecond).String(), "µs", "us")
}

func fmtSec(s float64) string {
	if s == 0 {
		return "-"
	}
	return strings.ReplaceAll(time.Duration(s*float64(time.Second)).Round(10*time.Microsecond).String(), "µs", "us")
}

func fmtProbeN(n int64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

func fmtRate(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

func fmtCal(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

// ShortHash truncates a fingerprint to its 12-character display prefix.
// Archives are outside input, so a shorter value prints whole and an empty
// one prints "-" rather than panicking on the slice.
func ShortHash(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "-"
	}
	return fp
}
