// Package paper is the one table of numbers the source paper publishes
// (Dive into the Cloud, IMC 2025) that this reproduction generates from or
// is judged against: Table 2, Table 3, the headline totals, the Fig. 5 /
// §4.3 / §4.4 / Fig. 6 / §3.4 / §5 shares, and the calibration bands the
// gate enforces.
//
// The rule for what lives here: a value the paper prints. A value tuned so
// the generator *hits* a printed number (e.g. the 404 weight of the status
// mix, or the non-DNS unreachable rate) stays in the generator next to the
// mechanism it tunes. Totals stay as printed rather than derived from the
// rows — Table 3's per-case requests sum to 615,219 against a printed
// 614,219, and Table 2's requests to 1,552,373,119 against a printed
// 1.552B — because EXPERIMENTS.md quotes the printed figure.
//
// The package imports nothing from the repo but internal/providers, so the
// generator, the simulators, the report and the gate can all read it.
package paper

import "repro/internal/providers"

// Usage is one provider's row of Table 2.
type Usage struct {
	Domains        int     // distinct function FQDNs over the window
	Requests       int64   // cumulative PDNS request count
	A, CNAME, AAAA float64 // record-type shares of answered requests
}

// Table2 is the per-provider usage and resolution table. Azure is absent:
// its shared suffix kept it out of collection.
var Table2 = map[providers.ID]Usage{
	//                   domains  requests     A       CNAME   AAAA
	providers.Aliyun:   {59_404, 440_860_944, 0.2796, 0.7204, 0},
	providers.Baidu:    {753, 17_005_075, 0.2247, 0.7753, 0},
	providers.Tencent:  {6_154, 3_024_609, 0.2389, 0.7611, 0},
	providers.Kingsoft: {123, 4_044, 1, 0, 0},
	providers.AWS:      {19_683, 346_651_678, 0.7673, 0, 0.2327},
	providers.Google:   {120_603, 543_330_521, 0.7641, 0, 0.2359},
	providers.Google2:  {324_343, 199_308_250, 0.6675, 0, 0.3325},
	providers.IBM:      {6, 107_421, 0.1015, 0.8755, 0.0230},
	providers.Oracle:   {14, 2_080_577, 1, 0, 0},
}

// Table 2's A-record Top10 shares for the two ends of §4.2's ingress
// spectrum: AWS spreads over thousands of nodes, Aliyun concentrates.
const (
	AWSTop10A    = 0.0179
	AliyunTop10A = 0.9357
)

// AbuseCase is one row of Table 3.
type AbuseCase struct {
	Functions int
	Requests  int64
}

// Table3 lists the eight abuse cases in the paper's row order, which is the
// order of abuse.Case: index it with an abuse.Case.
var Table3 = [...]AbuseCase{
	{16, 273_291},  // hide C2 server
	{194, 24_979},  // gambling website
	{8, 854},       // porn-related sites
	{4, 11_941},    // cheating tool
	{23, 16_771},   // redirect to new domains
	{243, 106_315}, // resale of OpenAI key
	{20, 170_195},  // illegal service proxy
	{86, 10_873},   // geo-bypass proxy
}

// The published totals, as printed, and the per-figure shares.
const (
	Domains        = 531_083 // Table 2 function domains
	Requests       = 1.552e9 // Table 2 requests
	AbuseFunctions = 594     // Table 3 abused functions
	AbuseRequests  = 614_219 // Table 3 abuse requests
	ContentRich    = 12_138  // §3.4 non-empty 200 responses
	Clusters       = 4_512   // §3.4 content clusters
	Findings       = 394     // §5 sensitive-data findings

	// Figure 5: per-function invocation distribution.
	FracUnder5  = 0.7814 // functions invoked fewer than 5 times
	FracOver100 = 0.0787 // functions invoked more than 100 times
	ModeLow     = 3      // histogram mode band, requests
	ModeHigh    = 6

	// §4.3: lifespan and activity density.
	SingleDayLifespan  = 0.8130
	LifespanUnder5Days = 0.8394
	MeanLifespanDays   = 21.44
	DensityOne         = 0.8301 // activity density p = 1

	// §4.4 and Figure 6: active probing; HTTP shares are of reachable
	// functions.
	Unreachable = 0.0203
	DNSFailure  = 0.1912 // of the unreachable: deleted Tencent functions
	HTTPS       = 0.9982 // reachable functions answering HTTPS
	HTTP404     = 0.8931
	HTTP200     = 0.0314
	HTTP5xx     = 0.0282
	HTTP401     = 0.0013
	Empty200    = 0.0399 // 200 responses with an empty body

	// §3.4: content types of the content-rich responses.
	JSONShare      = 0.3698
	HTMLShare      = 0.3154
	PlaintextShare = 0.3034
	OtherShare     = 0.0115

	// §5: the sensitive-data census by category.
	APIKeys      = 156
	NetworkIDs   = 127
	AccessTokens = 82
	Passwords    = 16
	Phones       = 8
	NationalIDs  = 5

	// §5.3 resale groups, §5.5 threat-intelligence coverage, and the
	// Table 3 abuse rate of content-rich functions.
	ResaleBiggestGroup = 157 // functions behind one WeChat handle
	ResaleAccountGroup = 14  // functions selling whole OpenAI accounts
	ResaleContacts     = 28  // distinct contacts
	TIFlagged          = 4   // abused functions threat intelligence knew
	AbuseRate          = 0.0489
)

// Target is one of the paper's scale-invariant results with the band a run
// must stay inside. The EXPERIMENTS.md row and the `scfruns gate` verdict
// both evaluate Contains on the same core.Results.Calibration share, so a
// calibration failure and a "**NO**" row always agree.
type Target struct {
	Name          string // calibration key
	Paper, Lo, Hi float64
	Desc          string
}

// Contains reports whether v sits inside the band.
func (t Target) Contains(v float64) bool { return v >= t.Lo && v <= t.Hi }

// Targets are the bands a run's calibration map is audited against.
var Targets = []Target{
	{Name: "unreachable_share", Paper: Unreachable, Lo: 0.0083, Hi: 0.0323, Desc: "§4.4 unreachable functions"},
	{Name: "dns_failure_share", Paper: DNSFailure, Lo: 0.0912, Hi: 0.2912, Desc: "§4.4 DNS failures among unreachable (deleted Tencent)"},
	{Name: "https_share", Paper: HTTPS, Lo: 0.99, Hi: 1.0, Desc: "§4.4 reachable functions answering HTTPS"},
	{Name: "http_404_share", Paper: HTTP404, Lo: 0.8531, Hi: 0.9331, Desc: "Fig 6 HTTP 404 share"},
	{Name: "http_200_share", Paper: HTTP200, Lo: 0.0014, Hi: 0.0614, Desc: "Fig 6 HTTP 200 share"},
	{Name: "single_day_lifespan", Paper: SingleDayLifespan, Lo: 0.7830, Hi: 0.8430, Desc: "§4.3 single-day lifespan"},
	{Name: "density_one_share", Paper: DensityOne, Lo: 0.7901, Hi: 0.8701, Desc: "§4.3 activity density p=1"},
	{Name: "frac_under5", Paper: FracUnder5, Lo: 0.7514, Hi: 0.8114, Desc: "Fig 5 functions invoked <5 times"},
	{Name: "frac_over100", Paper: FracOver100, Lo: 0.0487, Hi: 0.1087, Desc: "Fig 5 functions invoked >100 times"},
	{Name: "abuse_rate", Paper: AbuseRate, Lo: 0.02, Hi: 0.12, Desc: "Table 3 abuse rate of content-rich functions"},
}

// TargetFor looks a target up by calibration key.
func TargetFor(name string) (Target, bool) {
	for _, t := range Targets {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}
