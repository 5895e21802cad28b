package probe

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestExpireEndsRequestAsTimeout ends each request of a probe through Expire,
// once from the dial hook (as a latency spike does) and once from the
// server after the request arrived (as the simulated edge does for an
// internal-only function). Either way the probe must cost far less than its
// deadline and be accounted exactly like a real timeout.
func TestExpireEndsRequestAsTimeout(t *testing.T) {
	const timeout = 30 * time.Second
	for _, tc := range []struct {
		name string
		dial func(tlsAddr, plainAddr string, held chan<- context.Context) func(context.Context, string, string) (net.Conn, error)
	}{
		{"at-dial", func(_, _ string, _ chan<- context.Context) func(context.Context, string, string) (net.Conn, error) {
			return func(ctx context.Context, _, _ string) (net.Conn, error) {
				if !Expire(ctx) {
					return nil, errors.New("dial context carries no probe request")
				}
				return nil, errors.New("spiked dial")
			}
		}},
		{"at-server", func(tlsAddr, plainAddr string, held chan<- context.Context) func(context.Context, string, string) (net.Conn, error) {
			next := schemeDialer(tlsAddr, plainAddr)
			return func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := next(ctx, network, addr)
				if err == nil {
					held <- ctx
				}
				return c, err
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The server expires the request whose dial it was handed,
			// then holds the connection until the client leaves. One slot
			// per scheme, so no dial blocks on the handoff.
			held := make(chan context.Context, 2)
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				Expire(<-held)
				<-r.Context().Done()
			})
			tlsAddr, plainAddr, cleanup := newServerPair(t, h)
			defer cleanup()
			rb := &recordingBreaker{allow: true}
			reg := obs.NewRegistry()
			p := New(Config{
				DialContext:  tc.dial(tlsAddr, plainAddr, held),
				Timeout:      timeout,
				Retries:      2,
				RetryBackoff: time.Millisecond,
				Breaker:      rb,
				BreakerKey:   func(string) string { return "aws" },
				Metrics:      reg,
			})
			start := time.Now()
			res := p.Probe(context.Background(), "stalled.lambda-url.us-east-1.on.aws")
			if wall := time.Since(start); wall > timeout/3 {
				t.Fatalf("expired probe took %v of wall time, timeout %v", wall, timeout)
			}
			if res.Reachable || res.Failure != FailTimeout {
				t.Fatalf("result = %+v, want FailTimeout", res)
			}
			// One attempt per scheme: an expired request is a timeout, and
			// timeouts never retry.
			if res.Attempts != 2 {
				t.Errorf("attempts = %d, want 2", res.Attempts)
			}
			if st := p.Stats(); st.Requests != 2 || st.Retried != 0 {
				t.Errorf("stats = %+v, want 2 requests and no retries", st)
			}
			if got := rb.results["aws"]; len(got) != 1 || got[0] {
				t.Errorf("breaker outcomes = %v, want one failure", got)
			}
			if res.Elapsed < 2*timeout {
				t.Errorf("Elapsed = %v, want at least both deadlines (%v)", res.Elapsed, 2*timeout)
			}
			s := reg.Snapshot()
			hist := s.Histograms["probe_request_seconds"]
			if hist.Count != 2 || hist.Sum != 2*timeout.Seconds() {
				t.Errorf("probe_request_seconds count %d sum %v, want 2 observations at %v", hist.Count, hist.Sum, timeout)
			}
			if got := s.Counters["probe_expired_total"]; got != 2 {
				t.Errorf("probe_expired_total = %d, want 2", got)
			}
			if got := s.Counters["probe_timeouts_total"]; got != 1 {
				t.Errorf("probe_timeouts_total = %d, want 1", got)
			}
		})
	}
}

// A request nothing expires keeps the client's real timeout.
func TestUnexpiredStallWaitsRealTimeout(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	const timeout = 150 * time.Millisecond
	reg := obs.NewRegistry()
	p := New(Config{DialContext: schemeDialer(tlsAddr, plainAddr), Timeout: timeout, Metrics: reg})
	start := time.Now()
	res := p.Probe(context.Background(), "slow.lambda-url.us-east-1.on.aws")
	if res.Failure != FailTimeout || res.Attempts != 2 {
		t.Fatalf("result = %+v, want FailTimeout after 2 attempts", res)
	}
	if wall := time.Since(start); wall < 2*timeout || res.Elapsed < 2*timeout {
		t.Errorf("probe returned after %v (Elapsed %v), before both real timeouts (%v)", wall, res.Elapsed, 2*timeout)
	}
	if got := reg.Snapshot().Counters["probe_expired_total"]; got != 0 {
		t.Errorf("probe_expired_total = %d, want 0", got)
	}
}

// Expire needs a probe request's context; any other context is left alone.
func TestExpireWithoutRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if Expire(ctx) {
		t.Fatal("Expire reported a request on a plain context")
	}
	if ctx.Err() != nil {
		t.Fatalf("Expire cancelled a plain context: %v", ctx.Err())
	}
}

// Concurrent probes each end only their own request: half the FQDNs are
// expired at dial, the other half must be reached untouched.
func TestExpireIsRequestScoped(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	tlsAddr, plainAddr, cleanup := newServerPair(t, h)
	defer cleanup()
	next := schemeDialer(tlsAddr, plainAddr)
	p := New(Config{
		Timeout:     30 * time.Second,
		Concurrency: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if strings.HasPrefix(addr, "stalled") {
				Expire(ctx)
				return nil, errors.New("spiked dial")
			}
			return next(ctx, network, addr)
		},
	})
	var fqdns []string
	for i := 0; i < 64; i++ {
		kind := []string{"stalled", "healthy"}[i%2]
		fqdns = append(fqdns, fmt.Sprintf("%s%d.lambda-url.us-east-1.on.aws", kind, i))
	}
	for _, r := range p.ProbeAll(context.Background(), fqdns) {
		if strings.HasPrefix(r.FQDN, "stalled") {
			if r.Failure != FailTimeout || r.Attempts != 2 {
				t.Errorf("%s: %+v, want FailTimeout after 2 attempts", r.FQDN, r)
			}
		} else if !r.Reachable || !r.HTTPS {
			t.Errorf("%s: %+v, want reached over HTTPS", r.FQDN, r)
		}
	}
}
