package topk

import (
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
