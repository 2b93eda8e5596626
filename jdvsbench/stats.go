package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/frontend"
	"jdvs/internal/search/searcher"
)

// Percentiles are read from the raw sorted samples by nearest rank; no
// bucketing, so a bound tighter than a histogram bucket still holds.

// pct returns the p-th percentile of sorted by nearest rank, and how many
// samples lie beyond it.
func pct(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(n)/100)) - 1
	k = max(0, min(k, n-1))
	return sorted[k], n - 1 - k
}

// tail returns the highest of the usual tail percentiles that still has at
// least ten samples beyond it.
func tail(sorted []float64) (v, p float64, beyond int) {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 75} {
		if v, b := pct(sorted, p); b >= 10 {
			return v, p, b
		}
	}
	v, b := pct(sorted, 50)
	return v, 50, b
}

func sortedFloats(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// asFloats converts durations to floats in the given unit.
func asFloats(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func frac(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tierStats is one reading of every tier's MethodStats.
type tierStats struct {
	front     frontend.Stats
	blenders  []blender.Stats
	brokers   []broker.Stats
	searchers [][]searcher.Stats
}

// statsReader holds one connection to the frontend and to every blender,
// broker and searcher replica, and reads MethodStats over them as an
// operator's poller would; traced runs also replay queries over them.
type statsReader struct {
	front     *rpc.Client
	blenders  []*rpc.Client
	brokers   []*rpc.Client
	searchers [][]*rpc.Client
}

func newStatsReader(r *rig) (*statsReader, error) {
	sr := &statsReader{}
	var err error
	dial := func(addr string) *rpc.Client {
		if err != nil {
			return nil
		}
		var c *rpc.Client
		c, err = rpc.Dial(addr)
		return c
	}
	sr.front = dial(r.front.Addr())
	for _, b := range r.blenders {
		sr.blenders = append(sr.blenders, dial(b.Addr()))
	}
	for _, b := range r.brokers {
		sr.brokers = append(sr.brokers, dial(b.Addr()))
	}
	for _, g := range r.searchers {
		var cs []*rpc.Client
		for _, s := range g {
			cs = append(cs, dial(s.Addr()))
		}
		sr.searchers = append(sr.searchers, cs)
	}
	if err != nil {
		sr.close()
		return nil, err
	}
	return sr, nil
}

func (sr *statsReader) close() {
	for _, c := range sr.all() {
		if c != nil {
			c.Close()
		}
	}
}

func (sr *statsReader) all() []*rpc.Client {
	out := append([]*rpc.Client{sr.front}, sr.blenders...)
	out = append(out, sr.brokers...)
	for _, g := range sr.searchers {
		out = append(out, g...)
	}
	return out
}

func readStats(c *rpc.Client, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := c.Call(ctx, search.MethodStats, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func (sr *statsReader) read() (*tierStats, error) {
	ts := &tierStats{
		blenders:  make([]blender.Stats, len(sr.blenders)),
		brokers:   make([]broker.Stats, len(sr.brokers)),
		searchers: make([][]searcher.Stats, len(sr.searchers)),
	}
	if err := readStats(sr.front, &ts.front); err != nil {
		return nil, fmt.Errorf("frontend stats: %w", err)
	}
	for i, c := range sr.blenders {
		if err := readStats(c, &ts.blenders[i]); err != nil {
			return nil, fmt.Errorf("blender stats: %w", err)
		}
	}
	for i, c := range sr.brokers {
		if err := readStats(c, &ts.brokers[i]); err != nil {
			return nil, fmt.Errorf("broker stats: %w", err)
		}
	}
	for p, g := range sr.searchers {
		ts.searchers[p] = make([]searcher.Stats, len(g))
		for r, c := range g {
			if err := readStats(c, &ts.searchers[p][r]); err != nil {
				return nil, fmt.Errorf("searcher stats: %w", err)
			}
		}
	}
	return ts, nil
}

// counters sums the tier counters the per-layer metrics are built from.
type counters struct {
	feRetries                                     int64
	fcHits, fcMisses                              int64
	brQueries, rcHits, rcMisses, stale            int64
	hedges, hedgeWins, brFailures, partials       int64
	searches, filtered, inserts, reused, applyErr int64
}

func (ts *tierStats) counters() counters {
	c := counters{feRetries: ts.front.Retries}
	for _, b := range ts.blenders {
		c.fcHits += b.FeatureCacheHits
		c.fcMisses += b.FeatureCacheMisses
	}
	for _, b := range ts.brokers {
		c.brQueries += b.Queries
		c.rcHits += b.ResultCacheHits
		c.rcMisses += b.ResultCacheMisses
		c.stale += b.ResultCacheStaleEvictions
		c.hedges += b.Hedges
		c.hedgeWins += b.HedgeWins
		c.brFailures += b.Failures
		c.partials += b.Partials
	}
	for _, g := range ts.searchers {
		for _, s := range g {
			c.searches += s.Searches
			c.filtered += s.Index.FilteredSearches
			c.inserts += s.Index.Inserts
			c.reused += s.Index.ReusedInserts
			c.applyErr += s.ApplyErrors
		}
	}
	return c
}

// add returns c + o.
func (c counters) add(o counters) counters {
	return c.sub(counters{}.sub(o))
}

func (c counters) sub(o counters) counters {
	return counters{
		c.feRetries - o.feRetries,
		c.fcHits - o.fcHits, c.fcMisses - o.fcMisses,
		c.brQueries - o.brQueries, c.rcHits - o.rcHits, c.rcMisses - o.rcMisses, c.stale - o.stale,
		c.hedges - o.hedges, c.hedgeWins - o.hedgeWins, c.brFailures - o.brFailures, c.partials - o.partials,
		c.searches - o.searches, c.filtered - o.filtered, c.inserts - o.inserts, c.reused - o.reused, c.applyErr - o.applyErr,
	}
}
