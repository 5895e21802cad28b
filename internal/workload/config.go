// Package workload generates the synthetic two-year serverless-function
// population and its PDNS traffic, calibrated to every marginal the paper
// publishes. It stands in for the two gated inputs of the study — the
// 114 DNS passive-DNS feed and the live endpoints of nine commercial
// clouds — so that the identical measurement pipeline can run end to end
// (see DESIGN.md, "Substitutions").
//
// It reads the published values it is calibrated to — Table 2 and 3, the
// Fig. 5 / §4.3 invocation and lifespan shares, the Fig. 6 / §4.4 / §3.4
// probe-outcome and content mixes, the §5 census — from internal/paper;
// monthly trends follow the provider events of Figs. 3/4 and the resale
// burst of Fig. 7.
//
// Everything is derived from one seed; the generator is deterministic.
package workload

import (
	"time"

	"repro/internal/abuse"
	"repro/internal/paper"
	"repro/internal/pdns"
	"repro/internal/providers"
)

// Window is the paper's measurement window: April 2022 – March 2024.
func Window() pdns.Window {
	return pdns.Window{
		Start: pdns.NewDate(2022, time.April, 1),
		End:   pdns.NewDate(2024, time.March, 31),
	}
}

// Probe-outcome calibration (§4.4, Fig. 6). 2.03% of probed functions were
// unreachable (8,351 of 410,460); 19.12% of those (1,597) were DNS
// resolution failures, all deleted Tencent functions — 25.95% of Tencent's
// 6,154 domains. The remaining unreachable mass (6,754 of 410,460) spreads
// across all providers as internal-only functions and timeouts. Both
// fractions are tuned to hit the published shares in internal/paper.
const (
	fracTencentDeleted = 0.2595  // Tencent domains that are deleted (DNS failure)
	fracUnreachOther   = 0.01645 // non-DNS unreachable share, any provider
)

// Reachable-function status-code mix (Fig. 6). The residual mass goes to
// assorted low-frequency codes.
var statusMix = []struct {
	Status int
	Frac   float64
}{
	// Non-AWS mix; AWS trades 404 mass for server errors so it ends up
	// holding ~half of all 502s while the global 5xx share stays at the
	// paper's 2.82%.
	{404, 0.9210},
	{200, paper.HTTP200},
	{502, 0.0119},
	{403, 0.0250},
	{500, 0.0040},
	{503, 0.0020},
	{405, 0.0030},
	{429, 0.0020},
	{401, paper.HTTP401},
}

// The non-empty 200 responses split by content type as §3.4 reports.
var contentTypeMix = []struct {
	Kind Profile
	Frac float64
}{
	{ProfileJSON, paper.JSONShare},
	{ProfileHTML, paper.HTMLShare},
	{ProfileText, paper.PlaintextShare},
	{ProfileOther, paper.OtherShare},
}

// Sensitive-data census (§5) by category, scaled with the population.
var secretsCensus = []struct {
	Kind  SecretKind
	Count int
}{
	{SecretAPIKey, paper.APIKeys},
	{SecretNetworkID, paper.NetworkIDs},
	{SecretAccessToken, paper.AccessTokens},
	{SecretPassword, paper.Passwords},
	{SecretPhone, paper.Phones},
	{SecretNationalID, paper.NationalIDs},
}

// cohortProviders weights the deployment platform of each Table 3 cohort,
// matching the per-case provider skews reported in §5. The C2 cohort
// places its functions itself (cohortC2).
var cohortProviders = map[abuse.Case][]providers.ID{
	abuse.CaseGambling:     {providers.Google2},
	abuse.CasePorn:         {providers.Google2, providers.Aliyun},
	abuse.CaseCheating:     {providers.Google2, providers.AWS},
	abuse.CaseRedirect:     {providers.Aliyun, providers.Google2, providers.AWS},
	abuse.CaseOpenAIResale: {providers.Aliyun},
	abuse.CaseIllegalProxy: {providers.Tencent, providers.Aliyun, providers.AWS},
	abuse.CaseGeoProxy:     {providers.Google2, providers.AWS, providers.Aliyun},
}

// Config parameterises the generator.
type Config struct {
	// Seed drives every random choice; equal seeds give identical output.
	Seed int64
	// Scale multiplies the paper's population (1.0 = full 531k domains).
	// Tests run at small scales; proportions are scale-invariant.
	Scale float64
	// CacheModel, when true, passes invocation counts through the
	// recursive-resolver cache model before recording them as request_cnt
	// (ablation; default off so totals match Table 2 directly).
	CacheModel bool
	// Workers bounds the generator's per-provider fan-out (<= 0 selects
	// GOMAXPROCS). It only changes wall-clock time: every provider draws
	// from its own (Seed, suffix)-derived RNG stream, so the generated
	// fleet is identical for every Workers value.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	return c
}

// scaleCount scales a paper count, keeping at least one whenever the paper
// count is non-zero.
func scaleCount(n int, scale float64) int {
	if n == 0 {
		return 0
	}
	s := int(float64(n)*scale + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}
