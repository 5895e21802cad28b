package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/c2"
	"repro/internal/dnssim"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/workload"
)

// TestProbeStallsCostNoWallTime runs the pipeline with a 30 s probe timeout.
// Internal-only functions stall at the edge and latency spikes stall the
// dial; both are planned, so each ends its request at its deadline at once
// and the whole probe stage costs less than one timeout. Waiting the stalls
// out on the real clock would take at least two.
func TestProbeStallsCostNoWallTime(t *testing.T) {
	const timeout = 30 * time.Second
	for _, tc := range []struct {
		name  string
		chaos fault.Profile
	}{
		{"clean", fault.None()},
		{"heavy", fault.Heavy().WithSeed(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Seed: 11, Scale: 0.002, SkipC2Scan: true,
				Chaos:        tc.chaos,
				ProbeTimeout: timeout,
				// Connection-class retries back off on the real clock;
				// keep that wait out of what this test measures.
				ProbeRetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Stages {
				if wall := time.Duration(s.WallNS); s.Name == "probe" && wall >= timeout {
					t.Fatalf("probe stage took %v, want under one probe timeout (%v)", wall, timeout)
				}
			}
			injector := fault.New(res.Config.Chaos)
			byFQDN := map[string]probe.Result{}
			for _, r := range res.ProbeResults {
				byFQDN[r.FQDN] = r
			}
			internal, spiked := 0, 0
			for _, f := range res.Population.Functions {
				r, probed := byFQDN[f.FQDN]
				plan := injector.PlanFor(f.FQDN)
				// Only a stall the fault layer leaves alone, on a
				// probe the breaker let through, is pinned here.
				if !probed || r.Failure == probe.FailBreaker || plan.DNSFail {
					continue
				}
				switch {
				case plan.Latency:
					spiked++
				case f.Profile == workload.ProfileInternal && !plan.Faulty():
					internal++
				default:
					continue
				}
				if r.Failure != probe.FailTimeout || r.Attempts != 2 {
					t.Errorf("%s (%s): failure %q after %d requests, want %q after 2",
						f.FQDN, f.Profile, r.Failure, r.Attempts, probe.FailTimeout)
				}
			}
			t.Logf("%d internal-only and %d spiked functions pinned", internal, spiked)
			if internal == 0 {
				t.Fatal("population probed no internal-only function")
			}
			if tc.chaos.Latency > 0 && spiked == 0 {
				t.Fatal("heavy chaos spiked no probed function")
			}
			c := res.Metrics.Snapshot().Counters
			if c["probe_expired_total"] == 0 {
				t.Fatal("no request ended at its deadline")
			}
			if !tc.chaos.Enabled() && c["probe_expired_total"] != 2*c["probe_timeouts_total"] {
				t.Errorf("probe_expired_total %d, want 2 × probe_timeouts_total (%d)",
					c["probe_expired_total"], c["probe_timeouts_total"])
			}
		})
	}
}

// TestGoldenStallAccounting pins the golden configuration's stall
// accounting: each of its 61 timed-out FQDNs ended both requests at their
// deadline.
func TestGoldenStallAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden-configuration run; skipped in -short")
	}
	res, err := Run(Config{
		Seed: 1, Scale: 0.01, Workers: 4, SkipC2Scan: true,
		Chaos: fault.None(), ProbeTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Snapshot().Counters
	if c["probe_timeouts_total"] != 61 || c["probe_expired_total"] != 122 {
		t.Errorf("probe_timeouts_total %d, probe_expired_total %d; want 61 and 122",
			c["probe_timeouts_total"], c["probe_expired_total"])
	}
}

// TestEdgeStallEndsItsOwnRequest sweeps a mix of stalled and healthy
// functions through core's edge (gateway, both listeners, simDialer) at
// concurrency 32, many times over. Each internal-only stall must expire
// the request that dialed its connection and no other: a healthy request
// expired by mistake turns into a timeout or an HTTP fallback, and the
// sweeps stop agreeing.
func TestEdgeStallEndsItsOwnRequest(t *testing.T) {
	const timeout = 30 * time.Second
	pop := workload.Generate(workload.Config{Seed: 1, Scale: 0.01, Workers: 2})
	platform := faas.NewPlatform()
	workload.Deploy(pop, platform, c2.DefaultDB())
	gw := faas.NewGateway(platform)
	gw.Clock = workload.DeployWindowClock()
	gw.UnreachableDelay = 10 * timeout
	servers, err := startServers(gw)
	if err != nil {
		t.Fatal(err)
	}
	defer servers.Close()

	// Every stalled target, plus healthy ones whose TLS connections are
	// live while the stalls dial the plain listener.
	internal := map[string]bool{}
	var targets []string
	for _, f := range pop.Functions {
		internal[f.FQDN] = f.Profile == workload.ProfileInternal
	}
	healthy := 0
	for _, fqdn := range pop.ProbeTargets() {
		if internal[fqdn] || healthy < 100 {
			targets = append(targets, fqdn)
			if !internal[fqdn] {
				healthy++
			}
		}
	}

	cfg := Config{ProbeTimeout: timeout, ProbeConcurrency: 32, Chaos: fault.None()}.withDefaults()
	sweep := func() []probe.Result {
		res := &Results{}
		ctx, sp := obs.StartSpan(context.Background(), "probe")
		if err := runProbeStage(ctx, sp, cfg, res, pop, targets, dnssim.NewResolver(), servers, nil, obs.NewRegistry()); err != nil {
			t.Fatal(err)
		}
		return res.ProbeResults
	}
	type outcome struct {
		reachable, https bool
		failure          probe.FailureReason
		attempts         int
	}
	var first []outcome
	stalled := 0
	for i := 0; i < 30; i++ {
		start := time.Now()
		results := sweep()
		if wall := time.Since(start); wall >= timeout {
			t.Fatalf("sweep %d took %v, want under one probe timeout", i, wall)
		}
		got := make([]outcome, len(results))
		for j, r := range results {
			got[j] = outcome{r.Reachable, r.HTTPS, r.Failure, r.Attempts}
		}
		if i == 0 {
			first = got
			for j, r := range results {
				if internal[r.FQDN] {
					stalled++
					if r.Failure != probe.FailTimeout || r.Attempts != 2 {
						t.Errorf("%s: %+v, want timeout after 2 requests", r.FQDN, got[j])
					}
				} else if r.Failure == probe.FailTimeout {
					t.Errorf("%s: healthy function timed out", r.FQDN)
				}
			}
			continue
		}
		for j := range got {
			if got[j] != first[j] {
				t.Errorf("sweep %d: %s = %+v, sweep 0 had %+v", i, results[j].FQDN, got[j], first[j])
			}
		}
	}
	t.Logf("%d targets, %d internal-only", len(targets), stalled)
	if stalled == 0 {
		t.Fatal("sweep contains no internal-only function")
	}
}

// TestEdgeIndexKeysFullTuple pins the association the sweep above samples:
// two in-flight requests for one host whose connections share a client
// address, one to each listener, as Linux allows on loopback. A stall on
// the plain listener must expire the plain connection's request only, and
// a stall for another host on the TLS connection expires nothing.
func TestEdgeIndexKeysFullTuple(t *testing.T) {
	servers, err := startServers(faas.NewGateway(faas.NewPlatform()))
	if err != nil {
		t.Fatal(err)
	}
	defer servers.Close()

	// Each prober's dial parks until release, handing over its context.
	// The buffer holds every dial (two probes, two schemes), so none blocks.
	dialed := make(chan context.Context, 4)
	release := make(chan struct{})
	var probes sync.WaitGroup
	probeOne := func() (*obs.Registry, context.Context) {
		reg := obs.NewRegistry()
		p := probe.New(probe.Config{
			Timeout: 30 * time.Second,
			Metrics: reg,
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				dialed <- ctx
				<-release
				return nil, errors.New("released")
			},
		})
		probes.Add(1)
		go func() { defer probes.Done(); p.Probe(context.Background(), "f.example.com") }()
		return reg, <-dialed
	}
	plainReg, plainCtx := probeOne()
	tlsReg, tlsCtx := probeOne()

	const client = "127.0.0.1:40000"
	for _, ic := range []*indexedConn{
		{key: connKey(client, servers.plainAddr), host: "f.example.com", ctx: plainCtx},
		{key: connKey(client, servers.tlsAddr), host: "f.example.com", ctx: tlsCtx},
	} {
		servers.conns.Store(ic.key, ic)
	}
	stall := func(ln net.Listener, host string) {
		r := httptest.NewRequest(http.MethodGet, "http://"+host+"/", nil)
		r.RemoteAddr = client
		servers.expire(r.WithContext(context.WithValue(r.Context(), http.LocalAddrContextKey, ln.Addr())))
	}
	stall(servers.tlsLn, "other.example.com")
	stall(servers.plainLn, "f.example.com")
	close(release)
	probes.Wait()

	expired := func(reg *obs.Registry) int64 { return reg.Snapshot().Counters["probe_expired_total"] }
	if got := expired(plainReg); got != 1 {
		t.Errorf("plain request expired %d times, want 1", got)
	}
	if got := expired(tlsReg); got != 0 {
		t.Errorf("TLS request sharing the client address expired %d times, want 0", got)
	}
}
