package pdns

import "fmt"

// Merge folds other into ag, combining per-FQDN and per-provider statistics
// as if both aggregates had been produced by a single pass. The windows
// must match. Merging enables sharded aggregation: split the feed, run one
// Aggregator per shard, merge the results (workload.AggregateParallelCkpt).
//
// DaysCount merges conservatively: when the same FQDN appears in both
// shards, duplicate active days cannot be detected post-hoc, so callers
// that need exact day counts must shard by FQDN (ShardByFQDN does this).
func (ag *Aggregate) Merge(other *Aggregate) error {
	if ag.Window != other.Window {
		return fmt.Errorf("pdns: merging aggregates with different windows %v and %v", ag.Window, other.Window)
	}
	for fqdn, fs := range other.ByFQDN {
		cur, ok := ag.ByFQDN[fqdn]
		if !ok {
			ag.ByFQDN[fqdn] = fs
			continue
		}
		if fs.FirstSeenAll < cur.FirstSeenAll {
			cur.FirstSeenAll = fs.FirstSeenAll
		}
		if fs.LastSeenAll > cur.LastSeenAll {
			cur.LastSeenAll = fs.LastSeenAll
		}
		cur.TotalRequest += fs.TotalRequest
		cur.DaysCount += fs.DaysCount
	}
	for id, ps := range other.ByProvider {
		cur, ok := ag.ByProvider[id]
		if !ok {
			ag.ByProvider[id] = ps
			continue
		}
		cur.Requests += ps.Requests
		for r := range ps.Regions {
			cur.Regions[r] = struct{}{}
		}
		for t, rs := range ps.ByRType {
			crs, ok := cur.ByRType[t]
			if !ok {
				cur.ByRType[t] = rs
				continue
			}
			crs.Requests += rs.Requests
			for rd, c := range rs.ByRData {
				crs.ByRData[rd] += c
			}
		}
	}
	for d, n := range other.NewPerDay {
		ag.NewPerDay[d] += n
	}
	for id, m := range other.MonthlyReq {
		cur, ok := ag.MonthlyReq[id]
		if !ok {
			ag.MonthlyReq[id] = m
			continue
		}
		for month, v := range m {
			cur[month] += v
		}
	}
	ag.Scanned += other.Scanned
	ag.Matched += other.Matched
	ag.Dropped += other.Dropped
	// Recompute per-provider domain counts from the merged FQDN map.
	for _, ps := range ag.ByProvider {
		ps.Domains = 0
	}
	for _, fs := range ag.ByFQDN {
		if ps, ok := ag.ByProvider[fs.Provider]; ok {
			ps.Domains++
		}
	}
	return nil
}

// ShardByFQDN returns a stable shard index for an FQDN, so that all records
// of one function land in the same shard and day counts stay exact. It is
// derived from HashFQDN, the same hash the emitter seeds per-function RNG
// streams from, so sharding and stream seeding can never disagree about a
// function's identity.
func ShardByFQDN(fqdn string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(HashFQDN(fqdn) % uint64(shards))
}
