package topk

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPush measures the scan-path hot loop: offering candidates to a
// full selector (most offers are rejected in O(1)).
func BenchmarkPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float32, 1<<16)
	for i := range dists {
		dists[i] = rng.Float32()
	}
	s := New(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(uint64(i), dists[i&(1<<16-1)])
	}
}

// BenchmarkSelector measures one query's selection: a pooled selector
// reset to k, fed n candidates in scan order, then drained unordered. The
// shapes bracket the searcher's ADC over-fetch: k=900 is the reference
// cluster's 4-bit re-rank depth (TopK 30 × multiplier 30), n=3125 is what
// one of its 25k-image shards scores at nprobe 8 (8 of 64 lists), and
// n=12500 is the 100k-image shard of BenchmarkADCScan. At k=900, n=3125
// most candidates are accepted, so the cost of accepting one dominates.
func BenchmarkSelector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float32, 12500)
	for i := range dists {
		dists[i] = rng.Float32()
	}
	for _, k := range []int{30, 300, 900} {
		for _, n := range []int{3125, 12500} {
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				s := New(k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ResetK(k)
					for id, d := range dists[:n] {
						s.Push(uint64(id), d)
					}
					benchSink += len(s.Unordered())
				}
			})
		}
	}
}

var benchSink int
