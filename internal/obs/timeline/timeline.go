// Package timeline turns the cumulative observability registry into a
// windowed telemetry stream: on a pluggable clock it periodically snapshots
// the registry, subtracts the previous snapshot (obs.DeltaSnapshot), and
// records one Window per tick — counters and vector series as per-window
// deltas, histograms as per-window quantiles, gauges as last-value — folding
// in the stages entered, health breaches fired, resource high-water marks,
// and seeded-deterministic anomaly annotations over an error-class
// watchlist.
//
// The window sequence is machine-varying (wall-clock windows slice the run
// differently on every machine), so it lands in the run archive's timings
// half as timeline.jsonl and never feeds a run ID or a golden fingerprint.
// The deterministic *fields* of each window — index, stage annotations,
// anomaly flags — depend only on the capture schedule and the metric deltas,
// which is what the fake-clock tests pin down.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// Window is one record of the timeline: everything that happened between
// two consecutive captures.
type Window struct {
	Index   int64 `json:"index"`
	StartUS int64 `json:"start_us"` // window open, µs since recorder start
	EndUS   int64 `json:"end_us"`   // window close, µs since recorder start
	// Stage is the run stage current when the window closed; Stages lists
	// every stage entered during the window (so short stages inside one
	// window are still visible).
	Stage  string   `json:"stage,omitempty"`
	Stages []string `json:"stages,omitempty"`
	// Counters holds per-window deltas of plain counters (nonzero only);
	// Series the same for vector series, keyed "metric{v1|v2}"; Gauges the
	// last reading of each gauge; Hists per-window histogram windows.
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Series   map[string]int64      `json:"series,omitempty"`
	Hists    map[string]HistWindow `json:"hists,omitempty"`
	// Breaches are the health-rule firings recorded during the window;
	// Resources the process high-water marks since the previous window;
	// Anomalies the watchlist annotations (sorted by series).
	Breaches  []Breach           `json:"breaches,omitempty"`
	Resources *obs.ResourcePeaks `json:"resources,omitempty"`
	Anomalies []Anomaly          `json:"anomalies,omitempty"`
}

// HistWindow summarizes one histogram's observations within one window.
type HistWindow struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Breach is a health-rule firing attributed to the window it fired in.
type Breach struct {
	Rule  string  `json:"rule"`
	Group string  `json:"group,omitempty"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// Options configures a Recorder.
type Options struct {
	// Interval is the window length; non-positive disables the recorder
	// (NewRecorder returns nil).
	Interval time.Duration
	// Clock defaults to Wall().
	Clock Clock
}

// Recorder captures windows from a registry on a clock. A nil *Recorder is
// a valid no-op, like the rest of the observability layer, so callers wire
// it unconditionally and let the enabling flag decide whether it exists.
type Recorder struct {
	reg      *obs.Registry
	clock    Clock
	interval time.Duration

	mu       sync.Mutex
	start    time.Time
	prev     obs.Snapshot
	lastEnd  int64 // EndUS of the last captured window
	windows  []Window
	stage    string
	stages   []string // stages entered since the last capture
	breaches []Breach // breaches fired since the last capture
	peakFn   func() (obs.ResourcePeaks, bool)
	det      *detector
	subs     map[int]chan Window
	nextSub  int
	started  bool
	stopped  bool

	stop chan struct{}
	done chan struct{}
}

// NewRecorder builds a recorder over reg. A non-positive interval returns
// nil — the disabled recorder — which is how "-timeline-interval 0" opts
// out.
func NewRecorder(reg *obs.Registry, opts Options) *Recorder {
	if opts.Interval <= 0 {
		return nil
	}
	if opts.Clock == nil {
		opts.Clock = Wall()
	}
	return &Recorder{
		reg:      reg,
		clock:    opts.Clock,
		interval: opts.Interval,
		det:      newDetector(DefaultWatch()),
		subs:     make(map[int]chan Window),
	}
}

// Start takes the baseline snapshot and launches the capture goroutine.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.start = r.clock.Now()
	r.prev = r.reg.Snapshot()
	r.mu.Unlock()
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	// The ticker is created before the goroutine launches so a fake clock
	// advanced immediately after Start already has it registered.
	t := r.clock.NewTicker(r.interval)
	go func() {
		defer close(r.done)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case at := <-t.Chan():
				// Close the window at the tick's instant, not at a later
				// Now(): the clock may have moved on before this receive
				// is scheduled.
				r.capture(at)
			}
		}
	}()
}

// Stop halts the capture goroutine, flushes the partial tail window, closes
// all subscriptions, and returns the full window sequence. Subsequent
// NoteBreach calls no-op, so post-run cumulative health evaluation cannot
// land breaches on a closed timeline. Safe without Start and idempotent.
func (r *Recorder) Stop() []Window {
	if r == nil {
		return nil
	}
	if r.stop != nil {
		select {
		case <-r.stop:
		default:
			close(r.stop)
			<-r.done
		}
	}
	r.mu.Lock()
	alreadyStopped := r.stopped
	r.mu.Unlock()
	if !alreadyStopped {
		r.CaptureNow()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.stopped = true
		for id, ch := range r.subs {
			close(ch)
			delete(r.subs, id)
		}
	}
	return append([]Window(nil), r.windows...)
}

// SetStage names the run stage subsequent activity belongs to. Each
// distinct stage entered during a window is annotated on it.
func (r *Recorder) SetStage(name string) {
	if r == nil || name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stage = name
	if n := len(r.stages); n == 0 || r.stages[n-1] != name {
		r.stages = append(r.stages, name)
	}
}

// NoteBreach attributes a health-rule firing to the current window. Calls
// after Stop are dropped.
func (r *Recorder) NoteBreach(b Breach) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.breaches = append(r.breaches, b)
}

// SetPeakFn wires the resource high-water-mark source (typically
// (*obs.ResourceSampler).TakePeaks); each capture drains it into the window.
func (r *Recorder) SetPeakFn(fn func() (obs.ResourcePeaks, bool)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peakFn = fn
}

// WindowIndex returns the index of the window currently accumulating — what
// a breach fired right now would be attributed to. 0 before Start.
func (r *Recorder) WindowIndex() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.windows))
}

// Windows returns a copy of the windows captured so far.
func (r *Recorder) Windows() []Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Window(nil), r.windows...)
}

// Subscribe returns a channel receiving every window captured after the
// call, and a cancel function. The channel is buffered; a slow consumer
// loses windows rather than stalling capture. The channel closes on Stop or
// cancel.
func (r *Recorder) Subscribe(buf int) (<-chan Window, func()) {
	if r == nil {
		ch := make(chan Window)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		ch := make(chan Window)
		close(ch)
		return ch, func() {}
	}
	id := r.nextSub
	r.nextSub++
	ch := make(chan Window, buf)
	r.subs[id] = ch
	cancel := func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if c, ok := r.subs[id]; ok {
			close(c)
			delete(r.subs, id)
		}
	}
	return ch, cancel
}

// CaptureNow closes the current window immediately: snapshot, delta against
// the previous snapshot, annotate, append. Stop calls it for the tail
// window; tests call it directly for schedule-exact sequences.
func (r *Recorder) CaptureNow() {
	if r == nil {
		return
	}
	r.capture(r.clock.Now())
}

// capture closes the current window at now.
func (r *Recorder) capture(now time.Time) {
	snap := r.reg.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.stopped {
		return
	}
	delta := obs.DeltaSnapshot(r.prev, snap)
	w := Window{
		Index:   int64(len(r.windows)),
		StartUS: r.lastEnd,
		EndUS:   now.Sub(r.start).Microseconds(),
		Stage:   r.stage,
		Stages:  r.stages,
	}
	r.stages = nil
	w.Breaches = r.breaches
	r.breaches = nil
	for name, v := range delta.Counters {
		if v != 0 {
			if w.Counters == nil {
				w.Counters = make(map[string]int64)
			}
			w.Counters[name] = v
		}
	}
	if len(snap.Gauges) > 0 {
		w.Gauges = snap.Gauges
	}
	for name, vec := range delta.CounterVecs {
		for key, v := range vec.Series {
			if v != 0 {
				if w.Series == nil {
					w.Series = make(map[string]int64)
				}
				w.Series[name+"{"+key+"}"] = v
			}
		}
	}
	addHist := func(name string, h obs.HistogramSnapshot) {
		if h.Count == 0 {
			return
		}
		if w.Hists == nil {
			w.Hists = make(map[string]HistWindow)
		}
		w.Hists[name] = HistWindow{Count: h.Count, P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99)}
	}
	for name, h := range delta.Histograms {
		addHist(name, h)
	}
	for name, vec := range delta.HistogramVecs {
		for key, h := range vec.Series {
			addHist(name+"{"+key+"}", h)
		}
	}
	if r.peakFn != nil {
		if p, ok := r.peakFn(); ok {
			w.Resources = &p
		}
	}
	w.Anomalies = r.det.observe(snap, delta)
	r.prev = snap
	r.lastEnd = w.EndUS
	r.windows = append(r.windows, w)
	for _, ch := range r.subs {
		select {
		case ch <- w:
		default: // slow consumer: drop rather than stall capture
		}
	}
}

// AnomalyCount sums the anomaly annotations across a window sequence.
func AnomalyCount(ws []Window) int {
	n := 0
	for _, w := range ws {
		n += len(w.Anomalies)
	}
	return n
}

// WriteJSONL writes one window per line — the timeline.jsonl format.
func WriteJSONL(w io.Writer, ws []Window) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, win := range ws {
		if err := enc.Encode(win); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a timeline.jsonl stream, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Window, error) {
	var ws []Window
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var w Window
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("timeline: line %d: %w", len(ws)+1, err)
		}
		ws = append(ws, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ws, nil
}
