package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// span is one timed call in a traced run: a layer (module) name, its
// parent, wall-clock bounds and the process CPU spent between them.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"` // process-wide user+system CPU delta
}

func (s *span) wall() float64 { return s.End - s.Start }

// tracer records spans in memory and writes them out once the run ends.
// A nil *tracer is a valid no-op, so the untraced usage run and the traced
// one share one code path.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	spans     []*span
	goroutMax int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span; the returned func closes it. Every boundary also
// samples the goroutine count.
func (t *tracer) start(name, parent string) func() {
	if t == nil {
		return func() {}
	}
	t.sampleGoroutines()
	sp := &span{Name: name, Parent: parent, Start: t.since(), CPU: -cpuSeconds()}
	return func() {
		sp.End = t.since()
		sp.CPU += cpuSeconds()
		t.sampleGoroutines()
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name, parent string, fn func()) {
	end := t.start(name, parent)
	fn()
	end()
}

func (t *tracer) since() float64 { return time.Since(t.t0).Seconds() }

func (t *tracer) sampleGoroutines() {
	n := runtime.NumGoroutine()
	t.mu.Lock()
	if n > t.goroutMax {
		t.goroutMax = n
	}
	t.mu.Unlock()
}

// sum adds up the wall (or CPU) time of every span with the given name.
func (t *tracer) sum(name string, cpu bool) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			if cpu {
				total += s.CPU
			} else {
				total += s.wall()
			}
		}
	}
	return total
}

// topLevel sums the wall time of the spans without a parent: the share of
// the run the trace accounts for.
func (t *tracer) topLevel() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Parent == "" {
			total += s.wall()
		}
	}
	return total
}

// writeFile persists the spans as a JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// allocDelta measures heap allocation over a call: bytes and objects.
type allocDelta struct{ before runtime.MemStats }

func startAlloc() *allocDelta {
	d := &allocDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *allocDelta) stop() (bytes, objects float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - d.before.TotalAlloc), float64(after.Mallocs - d.before.Mallocs)
}
