package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/abuse"
	"repro/internal/paper"
	"repro/internal/probe"
	"repro/internal/runs"
)

// calibratedRows maps each paper.Targets key to the EXPERIMENTS.md row that
// reports it.
var calibratedRows = map[string]string{
	"unreachable_share":   "unreachable functions",
	"dns_failure_share":   "DNS failures among unreachable (deleted Tencent)",
	"https_share":         "reachable functions answering HTTPS",
	"http_404_share":      "HTTP 404 share",
	"http_200_share":      "HTTP 200 share",
	"single_day_lifespan": "single-day lifespan",
	"density_one_share":   "activity density p=1",
	"frac_under5":         "functions invoked <5 times",
	"frac_over100":        "functions invoked >100 times",
	"abuse_rate":          "abuse rate",
}

// withShare returns a copy of r whose Calibration()[key] is v (to within
// 1e-5), by rewriting the Results fields that share is computed from.
func withShare(t *testing.T, r *Results, key string, v float64) *Results {
	t.Helper()
	const n = 100_000
	k := int(math.Round(v * n))
	cp := *r
	switch key {
	case "unreachable_share":
		cp.ProbeStats.Probed, cp.ProbeStats.Unreachable = n, k
	case "dns_failure_share":
		cp.ProbeStats.Unreachable, cp.ProbeStats.DNSFailures = n, k
	case "https_share":
		cp.ProbeStats.Reachable, cp.ProbeStats.HTTPSOnly = n, k
	case "http_404_share", "http_200_share":
		status := map[string]int{"http_404_share": 404, "http_200_share": 200}[key]
		cp.ProbeResults = make([]probe.Result, n)
		for i := range cp.ProbeResults {
			cp.ProbeResults[i] = probe.Result{Reachable: true, Status: 418}
			if i < k {
				cp.ProbeResults[i].Status = status
			}
		}
	case "single_day_lifespan":
		cp.Lifespan.FracSingleDay = v
	case "density_one_share":
		cp.Lifespan.FracDensityOne = v
	case "frac_under5":
		cp.Frequency.FracUnder5 = v
	case "frac_over100":
		cp.Frequency.FracOver100 = v
	case "abuse_rate":
		rep := *r.AbuseReport
		rep.ContentRich = int(math.Round(float64(rep.TotalFunctions()) / v))
		cp.AbuseReport = &rep
	default:
		t.Fatalf("no perturbation for calibration key %s", key)
	}
	return &cp
}

// experimentsMark returns the "shape holds" cell of the named row.
func experimentsMark(t *testing.T, doc, metric string) string {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if cells := strings.Split(line, " | "); strings.HasPrefix(line, "| "+metric+" | ") && len(cells) == 4 {
			return strings.TrimSuffix(cells[3], " |")
		}
	}
	t.Fatalf("EXPERIMENTS has no %q row", metric)
	return ""
}

// TestCalibratedRowsCanFail sets each calibrated share to its paper value,
// then just outside its band on every side a share in [0, 1] can reach,
// and requires both views of the band to follow: the EXPERIMENTS row reads
// yes and the gate is quiet inside, the row turns to **NO** and the gate
// reports a calibration violation outside.
func TestCalibratedRowsCanFail(t *testing.T) {
	base := sharedRun(t)
	baseRec := &runs.Record{Summary: runs.Summary{Calibration: base.Calibration()}}
	for _, tg := range paper.Targets {
		metric, ok := calibratedRows[tg.Name]
		if !ok {
			t.Fatalf("target %s has no EXPERIMENTS row", tg.Name)
		}
		for _, v := range []float64{tg.Paper, tg.Lo - 0.001, tg.Hi + 0.001} {
			if v < 0 || v > 1 {
				continue
			}
			r := withShare(t, base, tg.Name, v)
			got := r.Calibration()[tg.Name]
			inside := v == tg.Paper
			if tg.Contains(got) != inside {
				t.Fatalf("%s: perturbed share %.5f, band [%.4f, %.4f], want inside=%v", tg.Name, got, tg.Lo, tg.Hi, inside)
			}
			wantMark, wantViolation := "**NO**", true
			if inside {
				wantMark, wantViolation = "yes", false
			}
			if mark := experimentsMark(t, r.RenderExperiments(), metric); mark != wantMark {
				t.Errorf("%s = %.5f: EXPERIMENTS row reads %q, want %q", tg.Name, got, mark, wantMark)
			}
			cand := &runs.Record{Summary: runs.Summary{Calibration: r.Calibration()}}
			violations := runs.Diff(baseRec, cand).Gate(runs.DefaultGateOptions())
			if has := strings.Contains(strings.Join(violations, "\n"), "calibration "+tg.Name+" "); has != wantViolation {
				t.Errorf("%s = %.5f: gate violations %q, want a calibration violation: %v", tg.Name, got, violations, wantViolation)
			}
		}
	}
}

// TestTable3MatchesAbuseCases pins the index contract of paper.Table3: one
// row per abuse.Case, in abuse.Case order.
func TestTable3MatchesAbuseCases(t *testing.T) {
	if len(paper.Table3) != abuse.NumCases {
		t.Fatalf("paper.Table3 has %d rows, abuse.Case has %d cases", len(paper.Table3), abuse.NumCases)
	}
	if paper.Table3[abuse.CaseC2].Functions != 16 || paper.Table3[abuse.CaseGeoProxy].Functions != 86 {
		t.Error("paper.Table3 rows are out of abuse.Case order")
	}
}
