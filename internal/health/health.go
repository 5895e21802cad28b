// Package health evaluates declarative SLO rules against the observability
// registry while a run executes. Rules are ratios, quantile bounds, or raw
// thresholds over (possibly labeled) metrics, optionally grouped by one
// label — "conn-failure share per provider below 2%", "probe p99 per
// provider under 3x the timeout", "zero quarantined feed lines". A Monitor
// samples the registry on a fixed interval, evaluates every rule over a
// rolling window of snapshot deltas, and emits a structured health event
// into the run's event log the first time a (rule, group) fires; Finalize
// re-evaluates cumulatively and returns the full per-group result table for
// the report.
//
// Everything here reads the registry and writes the event log — the two
// machine-varying surfaces of a run. Nothing feeds the deterministic run
// summary, so enabling the monitor cannot move a run ID or a golden
// fingerprint.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Rule is one declarative SLO bound. Metric names a counter, counter
// vector, or histogram vector in the registry; the rule fires for a group
// when its evaluated value exceeds Max.
type Rule struct {
	// Name identifies the rule in events and the report table.
	Name string
	// Metric is the metric evaluated. With Quantile set it must be a
	// histogram (vector); otherwise a counter (vector).
	Metric string
	// Match filters the metric's series to those carrying every given
	// label=value before aggregation (numerator only). Nil keeps all.
	Match map[string]string
	// Per groups evaluation by this label, yielding one result per label
	// value; empty evaluates the aggregate as a single group.
	Per string
	// Den, when set, names the denominator metric: the rule's value is
	// matched-Metric / Den within each group. When empty the value is the
	// raw sum (or the Quantile for histogram rules).
	Den string
	// Quantile, when positive, evaluates this quantile of the histogram
	// instead of a counter sum.
	Quantile float64
	// Max is the inclusive upper bound; a value strictly above it fires.
	Max float64
	// MinSamples suppresses evaluation of groups with fewer samples
	// (denominator sum, or histogram count) — small groups make noisy
	// ratios.
	MinSamples int64
}

// Result is one rule evaluation for one group.
type Result struct {
	Rule    string  `json:"rule"`
	Group   string  `json:"group,omitempty"` // Per-label value; "" for aggregate rules
	Value   float64 `json:"value"`
	Max     float64 `json:"max"`
	Samples int64   `json:"samples"`
	Window  string  `json:"window"` // "run", or the rolling window that first fired
	Fired   bool    `json:"fired"`
	// WindowIndex is the telemetry-timeline window the firing was first
	// attributed to, when a timeline recorder was wired (SetWindowIndex);
	// 0 otherwise. Machine-varying: it depends on where wall-clock windows
	// fell, so it never feeds the deterministic summary.
	WindowIndex int64 `json:"window_index,omitempty"`
}

// DefaultRules is the pipeline's SLO rule set. The bounds are chosen so a
// clean (chaos-none) golden run passes every rule — its legitimate DNS
// failures and probe timeouts are measurement results, not SLO breaches —
// while injected faults (connection resets, feed corruption, breaker trips,
// quarantined feed lines) fire.
func DefaultRules(probeTimeout time.Duration) []Rule {
	to := probeTimeout.Seconds()
	if to <= 0 {
		to = 2
	}
	return []Rule{
		{
			// Share of probes ending in a connection-class failure, per
			// provider. Clean endpoints refuse nothing; resets are injected.
			Name:   "probe-conn-error-rate",
			Metric: "probe_outcomes_total",
			Match:  map[string]string{"outcome": "conn"},
			Per:    "provider", Den: "probe_outcomes_total",
			Max: 0.02, MinSamples: 50,
		},
		{
			// Probe p99 per provider. Timeouts clamp request latency at the
			// configured probe timeout, so 3x timeout only trips if the
			// latency distribution escapes the ceiling entirely.
			Name:   "probe-p99-latency",
			Metric: "probe_request_seconds",
			Per:    "provider", Quantile: 0.99,
			Max: 3 * to, MinSamples: 50,
		},
		{
			// Any opened probe circuit means a provider substrate was
			// failing hard enough to trip the breaker.
			Name:   "breaker-opens",
			Metric: "fault_breaker_opens_total",
			Max:    0,
		},
		{
			// Share of PDNS records dropped at ingest validation.
			Name:   "feed-drop-rate",
			Metric: "pdns_records_dropped_total",
			Den:    "pdns_records_scanned_total",
			Max:    0.001, MinSamples: 1000,
		},
		{
			// Quarantined (undecodable) feed lines: any is a feed defect.
			Name:   "feed-quarantined-lines",
			Metric: "pdns_reader_quarantined_total",
			Max:    0,
		},
	}
}

// Evaluate runs every rule against one snapshot and returns one result per
// evaluated group, in rule order then group order. Groups below MinSamples
// and metrics absent from the snapshot produce no result.
func Evaluate(s obs.Snapshot, rules []Rule, window string) []Result {
	var out []Result
	for _, r := range rules {
		out = append(out, evalRule(s, r, window)...)
	}
	return out
}

func evalRule(s obs.Snapshot, r Rule, window string) []Result {
	var out []Result
	if r.Quantile > 0 {
		for group, h := range histGroups(s, r.Metric, r.Per, r.Match) {
			if h.Count < r.MinSamples {
				continue
			}
			v := h.Quantile(r.Quantile)
			out = append(out, Result{
				Rule: r.Name, Group: group, Value: v, Max: r.Max,
				Samples: h.Count, Window: window, Fired: v > r.Max,
			})
		}
		sortResults(out)
		return out
	}
	num := counterGroups(s, r.Metric, r.Per, r.Match)
	if num == nil {
		return nil
	}
	if r.Den == "" {
		for group, n := range num {
			if n < r.MinSamples {
				continue
			}
			v := float64(n)
			out = append(out, Result{
				Rule: r.Name, Group: group, Value: v, Max: r.Max,
				Samples: n, Window: window, Fired: v > r.Max,
			})
		}
		sortResults(out)
		return out
	}
	den := counterGroups(s, r.Den, r.Per, nil)
	for group, d := range den {
		if d == 0 || d < r.MinSamples {
			continue
		}
		v := float64(num[group]) / float64(d)
		out = append(out, Result{
			Rule: r.Name, Group: group, Value: v, Max: r.Max,
			Samples: d, Window: window, Fired: v > r.Max,
		})
	}
	sortResults(out)
	return out
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Group < rs[j].Group })
}

// counterGroups resolves a counter (vector) name into per-group sums: the
// vector form groups and filters by labels; the plain-counter form only
// supports the aggregate, unfiltered case.
func counterGroups(s obs.Snapshot, name, per string, match map[string]string) map[string]int64 {
	if v, ok := s.CounterVecs[name]; ok {
		return v.SumBy(per, match)
	}
	if c, ok := s.Counters[name]; ok && per == "" && len(match) == 0 {
		return map[string]int64{"": c}
	}
	return nil
}

func histGroups(s obs.Snapshot, name, per string, match map[string]string) map[string]obs.HistogramSnapshot {
	if v, ok := s.HistogramVecs[name]; ok {
		return v.MergeBy(per, match)
	}
	if h, ok := s.Histograms[name]; ok && per == "" && len(match) == 0 {
		return map[string]obs.HistogramSnapshot{"": h}
	}
	return nil
}

// Monitor samples a registry on an interval and evaluates rules over a
// rolling window of snapshot deltas while the run executes. A nil *Monitor
// is a valid no-op, like the rest of the observability layer.
type Monitor struct {
	reg      *obs.Registry
	elog     *obs.EventLog
	rules    []Rule
	interval time.Duration
	window   time.Duration

	mu       sync.Mutex
	ring     []timedSnap
	fired    map[string]Result // rule\x00group → first firing
	windowFn func() int64      // current timeline window index, nil when unwired
	onFiring func(Result)      // first-firing hook, nil when unwired

	stop chan struct{}
	done chan struct{}
}

type timedSnap struct {
	at   time.Time
	snap obs.Snapshot
}

// NewMonitor builds a monitor over reg that logs firings into elog.
// Evaluation happens every 500ms over a 10s rolling window; Finalize always
// adds a cumulative whole-run evaluation, so short runs are covered even if
// no tick ever fires.
func NewMonitor(reg *obs.Registry, elog *obs.EventLog, rules []Rule) *Monitor {
	return &Monitor{
		reg:      reg,
		elog:     elog,
		rules:    rules,
		interval: 500 * time.Millisecond,
		window:   10 * time.Second,
		fired:    make(map[string]Result),
	}
}

// SetWindowIndex wires the timeline recorder's current-window source; each
// first firing is stamped with the window it happened in. Call before Start.
func (m *Monitor) SetWindowIndex(fn func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.windowFn = fn
	m.mu.Unlock()
}

// SetOnFiring registers a hook invoked (under the monitor's lock — keep it
// cheap) for each first firing per (rule, group); the timeline recorder uses
// it to annotate the breach onto the current window. Call before Start.
func (m *Monitor) SetOnFiring(fn func(Result)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.onFiring = fn
	m.mu.Unlock()
}

// Start launches the sampling goroutine. Finalize stops it.
func (m *Monitor) Start() {
	if m == nil || m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.tick(time.Now())
			}
		}
	}()
}

func (m *Monitor) tick(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring = append(m.ring, timedSnap{at: now, snap: m.reg.Snapshot()})
	cut := 0
	for cut < len(m.ring)-1 && now.Sub(m.ring[cut].at) > m.window {
		cut++
	}
	m.ring = m.ring[cut:]
	if len(m.ring) < 2 {
		return
	}
	delta := obs.DeltaSnapshot(m.ring[0].snap, m.ring[len(m.ring)-1].snap)
	window := fmt.Sprintf("%gs", m.window.Seconds())
	for _, res := range Evaluate(delta, m.rules, window) {
		if res.Fired {
			m.recordFiring(res)
		}
	}
}

// recordFiring stores and logs the first firing per (rule, group). Callers
// hold m.mu.
func (m *Monitor) recordFiring(res Result) {
	key := res.Rule + "\x00" + res.Group
	if _, seen := m.fired[key]; seen {
		return
	}
	attrs := []obs.Attr{
		{Key: "group", Value: res.Group},
		{Key: "value", Value: fmt.Sprintf("%.6g", res.Value)},
		{Key: "max", Value: fmt.Sprintf("%.6g", res.Max)},
		{Key: "window", Value: res.Window},
		{Key: "samples", Value: fmt.Sprintf("%d", res.Samples)},
	}
	if m.windowFn != nil {
		res.WindowIndex = m.windowFn()
		attrs = append(attrs, obs.Attr{Key: "window_index", Value: fmt.Sprintf("%d", res.WindowIndex)})
	}
	m.fired[key] = res
	m.elog.Emit(obs.EventHealth, res.Rule, attrs...)
	if m.onFiring != nil {
		m.onFiring(res)
	}
}

// Finalize stops the sampler, evaluates every rule against the cumulative
// registry state, merges in any mid-run firings (a transient breach stays
// fired even if the whole-run value recovered), and returns the full result
// table sorted by rule then group. Safe to call without Start, and at most
// once.
func (m *Monitor) Finalize() []Result {
	if m == nil {
		return nil
	}
	if m.stop != nil {
		close(m.stop)
		<-m.done
		m.stop = nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	final := Evaluate(m.reg.Snapshot(), m.rules, "run")
	for i, res := range final {
		key := res.Rule + "\x00" + res.Group
		if res.Fired {
			m.recordFiring(res)
			// The cumulative row keeps its whole-run value, but the window
			// stamp belongs to the first firing — that's when it happened.
			if first, ok := m.fired[key]; ok {
				final[i].WindowIndex = first.WindowIndex
			}
		} else if first, ok := m.fired[key]; ok {
			final[i] = first // transient mid-run breach: keep the firing
		}
	}
	// Groups that fired mid-run but fell below MinSamples (or vanished) in
	// the cumulative view still belong in the table.
	have := make(map[string]bool, len(final))
	for _, res := range final {
		have[res.Rule+"\x00"+res.Group] = true
	}
	for key, first := range m.fired {
		if !have[key] {
			final = append(final, first)
		}
	}
	order := make(map[string]int, len(m.rules))
	for i, r := range m.rules {
		order[r.Name] = i
	}
	sort.Slice(final, func(i, j int) bool {
		if order[final[i].Rule] != order[final[j].Rule] {
			return order[final[i].Rule] < order[final[j].Rule]
		}
		return final[i].Group < final[j].Group
	})
	return final
}

// Fired reports whether any result in rs fired.
func Fired(rs []Result) bool {
	for _, r := range rs {
		if r.Fired {
			return true
		}
	}
	return false
}
