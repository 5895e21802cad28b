package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Trace collects the span tree of one pipeline run. Spans started from a
// context carrying the trace attach themselves under the current span (or as
// roots), so the finished trace is the run's stage hierarchy. Safe for
// concurrent use; a nil *Trace is a valid no-op sink.
type Trace struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
	eventLogKey
)

// ContextWithTrace attaches tr to ctx; spans started from descendants of the
// returned context are recorded under tr.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// SpanFrom returns the innermost span open on ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan opens a named span under the span currently on ctx (or as a
// trace root) and returns a context carrying the new span. Spans work
// without a trace on the context — they still time themselves — but are only
// reachable through the trace tree when one is attached. Call End exactly
// once; a span left open reports zero duration in Records.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	if parent := SpanFrom(ctx); parent != nil {
		parent.addChild(sp)
	} else {
		sp.root = true
		sp.cpuStart = processCPUTime()
		if tr := TraceFrom(ctx); tr != nil {
			tr.addRoot(sp)
		}
	}
	if l := EventLogFrom(ctx); l != nil {
		sp.log = l
		typ := EventSpanStart
		if sp.root {
			typ = EventStageStart
		}
		l.Emit(typ, name)
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

func (t *Trace) addRoot(sp *Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
}

// Records returns the trace as a tree of immutable span records, in start
// order. Open spans appear with zero Wall/CPU.
func (t *Trace) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	out := make([]SpanRecord, 0, len(roots))
	for _, sp := range roots {
		out = append(out, sp.Record())
	}
	return out
}

// Span is one timed region of a run: a pipeline stage, a sweep, a substrate
// build. Only root spans — the serial pipeline stages — record CPU time, as
// the process-wide CPU delta over their lifetime; that delta is exact for
// one stage at a time. Child spans may run alongside their siblings
// (emission shards), where the same delta would charge each of them the
// whole stage, so children report no CPU; their stage's span carries it.
type Span struct {
	name     string
	start    time.Time
	cpuStart time.Duration
	root     bool      // started with no parent span: a pipeline stage
	log      *EventLog // event sink from the start context, or nil

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	wall     time.Duration
	cpu      time.Duration
	err      string
	ended    bool
}

// Attr is one span annotation, kept in insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span; values are formatted with %v. Setting an
// existing key overwrites it.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	v := fmt.Sprintf("%v", value)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetError records err on the span (nil clears nothing and is a no-op), so
// cancelled or failed stages are visible in the trace and manifest.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End closes the span, fixing its wall and CPU durations. Second and later
// calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	var cpu time.Duration
	if s.root {
		cpu = processCPUTime() - s.cpuStart
	}
	s.mu.Lock()
	ended := s.ended
	if !s.ended {
		s.ended = true
		s.wall = wall
		if cpu > 0 {
			s.cpu = cpu
		}
	}
	wall, cpu = s.wall, s.cpu
	errStr := s.err
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	if s.log != nil && !ended {
		typ := EventSpanEnd
		if s.root {
			typ = EventStageEnd
		}
		s.log.emit(Event{
			Type: typ, Name: s.name,
			WallNS: int64(wall), CPUNS: int64(cpu),
			Err: errStr, Attrs: attrs,
		})
	}
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// Record snapshots the span and its subtree, children in start order.
func (s *Span) Record() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	s.mu.Lock()
	rec := SpanRecord{
		Name:   s.name,
		Start:  s.start.UTC().Format(time.RFC3339Nano),
		WallNS: int64(s.wall),
		CPUNS:  int64(s.cpu),
		Wall:   s.wall.String(),
		CPU:    s.cpu.String(),
		Err:    s.err,
		Attrs:  append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(children, func(i, j int) bool { return children[i].start.Before(children[j].start) })
	for _, c := range children {
		rec.Children = append(rec.Children, c.Record())
	}
	return rec
}

// SpanRecord is the immutable, JSON-serialisable form of a finished span.
// Durations appear both as nanosecond integers (machine-readable) and
// formatted strings (human-readable manifests).
type SpanRecord struct {
	Name     string       `json:"name"`
	Start    string       `json:"start,omitempty"` // RFC3339Nano, UTC
	Wall     string       `json:"wall"`
	CPU      string       `json:"cpu"`
	WallNS   int64        `json:"wall_ns"`
	CPUNS    int64        `json:"cpu_ns"`
	Err      string       `json:"err,omitempty"`
	Attrs    []Attr       `json:"attrs,omitempty"`
	Children []SpanRecord `json:"children,omitempty"`
}
