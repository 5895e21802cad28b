package timeline

import (
	"sync"
	"time"
)

// Clock abstracts "when is it and when does the next window close" so the
// recorder runs identically on wall time today and on the roadmap's
// time-compressed simulated clock tomorrow. Production code passes Wall();
// tests pass a FakeClock and step it explicitly.
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic slice of time.Ticker the recorder needs.
type Ticker interface {
	Chan() <-chan time.Time
	Stop()
}

// Wall returns the real-time clock.
func Wall() Clock { return wallClock{} }

type wallClock struct{}

func (wallClock) Now() time.Time                   { return time.Now() }
func (wallClock) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTicker struct{ t *time.Ticker }

func (t wallTicker) Chan() <-chan time.Time { return t.t.C }
func (t wallTicker) Stop()                  { t.t.Stop() }

// FakeClock is a manually-stepped clock for deterministic tests. Advance
// moves time forward and delivers one tick per elapsed period to every
// ticker, blocking until each tick is consumed — so after Advance returns,
// every consumer has at least received (though not necessarily finished
// processing) its ticks.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*fakeTicker
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{now: start} }

// Now returns the clock's current instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTicker registers a ticker firing every d of fake time.
func (c *FakeClock) NewTicker(d time.Duration) Ticker {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTicker{clock: c, period: d, next: c.now.Add(d), ch: make(chan time.Time)}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves the clock forward by d, delivering due ticks in time order.
// Each delivery blocks until the consumer receives it; stopped tickers are
// skipped.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	c.mu.Unlock()
	for {
		c.mu.Lock()
		var earliest *fakeTicker
		for _, t := range c.tickers {
			if t.stopped {
				continue
			}
			if !t.next.After(target) && (earliest == nil || t.next.Before(earliest.next)) {
				earliest = t
			}
		}
		if earliest == nil {
			c.now = target
			c.mu.Unlock()
			return
		}
		at := earliest.next
		earliest.next = at.Add(earliest.period)
		if at.After(c.now) {
			c.now = at
		}
		ch := earliest.ch
		c.mu.Unlock()
		ch <- at
	}
}

type fakeTicker struct {
	clock   *FakeClock
	period  time.Duration
	next    time.Time
	ch      chan time.Time
	stopped bool
}

func (t *fakeTicker) Chan() <-chan time.Time { return t.ch }

func (t *fakeTicker) Stop() {
	t.clock.mu.Lock()
	t.stopped = true
	t.clock.mu.Unlock()
}
