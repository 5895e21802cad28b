package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dnssim"
	"repro/internal/pdns"
)

// EmitPDNS streams the population's two-year PDNS history to sink in
// deterministic order. Each function's daily invocations are resolved
// through the provider's ingress policy (package dnssim) and folded into
// daily-aggregated records, exactly the tuple shape of paper §3.2.
//
// Every function draws from its own RNG stream seeded from
// (pop.Config.Seed, HashFQDN): a function's records depend only on the seed
// and its name, never on emission order. That is what lets the batch
// emitter behind AggregateParallelCkpt and EmitPDNSOrdered fan the very same
// streams out across workers and still match this serial path bit for bit.
//
// With cfg.CacheModel set, invocation counts pass through the
// recursive-resolver cache model first, making request_cnt the conservative
// lower bound the paper describes.
func EmitPDNS(pop *Population, resolver *dnssim.Resolver, sink func(*pdns.Record) error) error {
	sc := &emitScratch{}
	row := func(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) error {
		return sink(sc.record(t, rdata, firstUnix, lastUnix, cnt, day))
	}
	for _, f := range pop.Functions {
		sc.fqdn = f.FQDN
		if err := emitFunctionInto(pop, f, resolver, functionRNG(pop.Config.Seed, f.FQDN), sc, row); err != nil {
			return fmt.Errorf("workload: emit %s: %w", f.FQDN, err)
		}
	}
	return nil
}

// functionRNG builds the deterministic per-function RNG stream. The FQDN
// hash is folded into the seed through a splitmix64 finalizer so that
// adjacent seeds and similar names still yield uncorrelated streams.
func functionRNG(seed int64, fqdn string) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ 0x5eed0d25 ^ pdns.HashFQDN(fqdn)))))
}

// mix64 is the splitmix64 finalizer, a cheap full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowFunc consumes one emitted record in exploded (column) form; the
// scalar and batch sinks are both built on it. Timestamps are Unix seconds,
// the wire precision of the dataset.
type rowFunc func(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) error

// emitScratch holds the per-emitter reusable state: the rtype-allocation
// and count-split buffers that used to be allocated per (function, day),
// and the scalar Record that per-record sinks and mutate hooks see. One
// scratch serves one goroutine for the whole emission pass.
type emitScratch struct {
	counts [3]int64
	tcs    [3]rtypeCount
	shares [2]int64
	fqdn   string // current function, re-stamped on every scalar row
	rec    pdns.Record
}

// record materialises one row into the scratch Record. Every field is
// rewritten per row (the caller maintains sc.fqdn), so consumers may mutate
// it freely — they just must not retain the pointer.
func (sc *emitScratch) record(t pdns.RType, rdata string, firstUnix, lastUnix, cnt int64, day pdns.Date) *pdns.Record {
	sc.rec.FQDN = sc.fqdn
	sc.rec.RType = t
	sc.rec.RData = rdata
	sc.rec.FirstSeen = time.Unix(firstUnix, 0).UTC()
	sc.rec.LastSeen = time.Unix(lastUnix, 0).UTC()
	sc.rec.RequestCnt = cnt
	sc.rec.PDate = day
	return &sc.rec
}

// emitFunctionInto emits the records of one function. Each day's invocation
// count is allocated across record types proportionally to the provider's
// policy shares (so the Table 2 type mix holds exactly even though a few
// heavy-tail functions carry most of the volume), and each type's share is
// split over one or more ingress-node draws. RNG consumption is part of
// the determinism contract: the draw sequence per function is fixed, so
// every emission mode yields byte-identical per-function streams.
func emitFunctionInto(pop *Population, f *Function, resolver *dnssim.Resolver, rng *rand.Rand, sc *emitScratch, row rowFunc) error {
	pol, ok := dnssim.PolicyFor(f.Provider)
	if !ok {
		return fmt.Errorf("no DNS policy for provider %v", f.Provider)
	}
	for i, day := range f.ActiveDays {
		count := f.DailyInvocations[i]
		if count <= 0 {
			continue
		}
		for _, tc := range sc.allocateRTypes(pol, count, rng) {
			draws := 1
			if tc.count >= 50 {
				draws = 2
			}
			for _, share := range sc.splitCount(rng, tc.count, draws) {
				ans, err := resolver.ResolveRType(f.FQDN, tc.rtype, rng)
				if err != nil {
					return err
				}
				obs := share
				if pop.Config.CacheModel {
					obs = dnssim.ObservedQueries(share, 86_400, float64(ans.TTL))
				}
				firstUnix := int64(day)*86400 + int64(rng.Intn(6*3600))
				lastUnix := firstUnix + int64(1+rng.Intn(16*3600))
				if err := row(ans.RType, ans.RData, firstUnix, lastUnix, obs, day); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

type rtypeCount struct {
	rtype pdns.RType
	count int64
}

// allocateRTypes splits a day's count across the provider's record types by
// policy share: each type gets its proportional floor, and the remaining
// units are drawn stochastically by share. Heavy days therefore follow the
// exact proportions while single-request days still sample every type with
// the right probability (so even one-function providers like IBM expose
// their AAAA share). The returned slice aliases the scratch and is valid
// until the next call.
func (sc *emitScratch) allocateRTypes(pol *dnssim.Policy, count int64, rng *rand.Rand) []rtypeCount {
	shares := [3]struct {
		t     pdns.RType
		share float64
	}{
		{pdns.TypeCNAME, pol.CNAMEShare},
		{pdns.TypeA, pol.AShare},
		{pdns.TypeAAAA, pol.AAAAShare},
	}
	sc.counts = [3]int64{}
	var assigned int64
	for si, s := range shares {
		c := int64(float64(count) * s.share)
		if c > 0 {
			sc.counts[si] = c
			assigned += c
		}
	}
	for rem := count - assigned; rem > 0; rem-- {
		x := rng.Float64()
		for si, s := range shares {
			x -= s.share
			if x <= 0 || s.t == pdns.TypeAAAA {
				sc.counts[si]++
				break
			}
		}
	}
	out := sc.tcs[:0]
	for si, s := range shares {
		if c := sc.counts[si]; c > 0 {
			out = append(out, rtypeCount{s.t, c})
		}
	}
	return out
}

// splitCount partitions count into n positive shares. The returned slice
// aliases the scratch and is valid until the next call.
func (sc *emitScratch) splitCount(rng *rand.Rand, count int64, n int) []int64 {
	if int64(n) > count {
		n = int(count)
	}
	if n <= 1 {
		sc.shares[0] = count
		return sc.shares[:1]
	}
	out := sc.shares[:n]
	remaining := count
	for i := 0; i < n-1; i++ {
		maxShare := remaining - int64(n-1-i)
		share := 1 + rng.Int63n(maxShare)
		// Bias the first draw large so the primary rtype dominates.
		if i == 0 && maxShare > 4 {
			share = maxShare/2 + rng.Int63n(maxShare/2+1)
		}
		out[i] = share
		remaining -= share
	}
	out[n-1] = remaining
	return out
}

// MarkDeleted registers every deleted function with the resolver so the
// probing phase sees Tencent NXDOMAINs (paper §4.4).
func MarkDeleted(pop *Population, resolver *dnssim.Resolver) int {
	n := 0
	for _, f := range pop.Functions {
		if f.Profile == ProfileDeleted {
			resolver.MarkDeleted(f.FQDN)
			n++
		}
	}
	return n
}

// Records materialises the whole PDNS stream in memory — convenient for
// tests and small scales; large runs should stream via EmitPDNS.
func Records(pop *Population, resolver *dnssim.Resolver) ([]pdns.Record, error) {
	var out []pdns.Record
	err := EmitPDNS(pop, resolver, func(r *pdns.Record) error {
		out = append(out, *r)
		return nil
	})
	return out, err
}
