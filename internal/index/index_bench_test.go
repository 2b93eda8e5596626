package index

import (
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

func benchShard(b *testing.B, n int) (*Shard, [][]float32) {
	b.Helper()
	const dim = 64
	s, err := New(Config{Dim: dim, NLists: 64, DefaultNProbe: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	train := make([]float32, 2_000*dim)
	for i := range train {
		train[i] = float32(rng.NormFloat64())
	}
	if err := s.Train(train, 1); err != nil {
		b.Fatal(err)
	}
	feats := make([][]float32, n)
	for i := 0; i < n; i++ {
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(rng.NormFloat64())
		}
		feats[i] = f
		a := core.Attrs{
			ProductID: uint64(i + 1),
			URL:       fmt.Sprintf("jfs://bench/p%d.jpg", i),
			Category:  uint16(i % 8),
		}
		if _, _, err := s.Insert(a, f); err != nil {
			b.Fatal(err)
		}
	}
	return s, feats
}

// BenchmarkSearch measures the full per-partition query path: probe
// selection, list scans, distance computation, top-k and result assembly.
func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			s, feats := benchShard(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := &core.SearchRequest{Feature: feats[i%len(feats)], TopK: 10, NProbe: 8, Category: -1}
				if _, err := s.Search(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchWorkers compares the serial scan against the parallel
// intra-shard scan (§2.4 multi-thread searching) across probe widths and
// worker counts. Parallel wins over serial at nprobe ≥ 8 on multi-core;
// workers=1 is the baseline serial path.
func BenchmarkSearchWorkers(b *testing.B) {
	s, feats := benchShard(b, 50_000)
	for _, nprobe := range []int{8, 16, 32} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("nprobe=%d/workers=%d", nprobe, workers), func(b *testing.B) {
				s.SetSearchWorkers(workers)
				defer s.SetSearchWorkers(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := &core.SearchRequest{Feature: feats[i%len(feats)], TopK: 10, NProbe: nprobe, Category: -1}
					if _, err := s.Search(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkADCScan pits the product-quantized scan paths against the
// exact float scan over the same corpus at the same probe count:
// path=exact reads a dim×4-byte feature row per candidate, bits=8 reads
// an M-byte code and sums M table lookups, bits=4 streams packed blocks
// through the fast-scan kernel at M/2 bytes per code. Every quantized
// variant exactly re-ranks its top RerankK. The corpus is sized so
// feature rows spill out of cache — the condition the ADC path exists
// for. Each batch variant pushes the same 8 queries per iteration —
// batch=1 as 8 sequential Search calls, batch=8 as one SearchBatch — so
// ns/op is directly comparable across batch sizes. Rows without a topk
// suffix serve a TopK 10 page; the bits=4 topk=30 rows are the fan-out
// shape the reference cluster serves (the blender's Oversample 3 × page
// 10 against 4-bit shards), whose 900-deep re-rank makes the hand-off
// from scan to re-rank a visible share of the query.
func BenchmarkADCScan(b *testing.B) {
	const n, dim, m = 100_000, 64, 16
	rng := rand.New(rand.NewSource(41))
	feats := clusteredFeatures(rng, n, dim, 64, 0.25)
	train := make([]float32, 0, 2000*dim)
	for i := 0; i < 2000; i++ {
		train = append(train, feats[i]...)
	}
	build := func(pqM, bits int) *Shard {
		s, err := New(Config{Dim: dim, NLists: 64, DefaultNProbe: 8, SearchWorkers: 1, PQSubvectors: pqM, PQBits: bits})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Train(train, 1); err != nil {
			b.Fatal(err)
		}
		if pqM > 0 {
			if err := s.TrainPQ(train, 1); err != nil {
				b.Fatal(err)
			}
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://adc/%d.jpg", i)}
			if _, _, err := s.Insert(a, f); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	b.Run("path=exact", func(b *testing.B) {
		s := build(0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := &core.SearchRequest{Feature: feats[(i*37)%n], TopK: 10, NProbe: 8, Category: -1}
			if _, err := s.Search(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	cases := []struct{ bits, batch, topK int }{
		{8, 1, 10}, {8, 8, 10}, {4, 1, 10}, {4, 8, 10}, {4, 1, 30}, {4, 8, 30},
	}
	shards := map[int]*Shard{}
	for _, c := range cases {
		s := shards[c.bits]
		if s == nil {
			s = build(m, c.bits)
			shards[c.bits] = s
		}
		batch, topK := c.batch, c.topK
		name := fmt.Sprintf("path=adc/bits=%d/batch=%d", c.bits, batch)
		if topK != 10 {
			name += fmt.Sprintf("/topk=%d", topK)
		}
		b.Run(name, func(b *testing.B) {
			reqs := make([]*core.SearchRequest, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for q := range reqs {
					reqs[q] = &core.SearchRequest{Feature: feats[((i*8+q)*37)%n], TopK: topK, NProbe: 8, Category: -1}
				}
				if batch == 1 {
					for _, req := range reqs {
						if _, err := s.Search(req); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					_, errs := s.SearchBatch(reqs)
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// filteredScanBaseline is the pre-pushdown admission strategy kept as the
// benchmark baseline: probe the same lists and decide every candidate with
// a validity-bit read plus a forward lookup, instead of one pre-built
// admission bitmap. sel and the probe buffers are caller-owned so the
// baseline pays no per-query allocations the real path doesn't.
func filteredScanBaseline(s *Shard, req *core.SearchRequest, probe []int, probeDist []float32, sel *topk.Selector) ([]int, []float32) {
	probe, probeDist = vecmath.TopCentroidsInto(probe, probeDist, req.Feature, s.codebook.Centroids, s.cfg.Dim, req.NProbe)
	sel.ResetK(req.TopK)
	for _, l := range probe {
		s.inv.Scan(l, func(id uint32) bool {
			if !s.valid.Get(id) {
				return true
			}
			sales, _, price, cat, ok := s.fwd.Numeric(id)
			if !ok {
				return true
			}
			if req.Category >= 0 && int32(cat) != req.Category {
				return true
			}
			if !req.MatchesAttrs(sales, price) {
				return true
			}
			row := s.feats.Row(id)
			if row == nil {
				return true
			}
			sel.Push(uint64(id), vecmath.L2Squared(req.Feature, row))
			return true
		})
	}
	sel.Sorted()
	return probe, probeDist
}

// BenchmarkFilteredScan pits the bitmap-admission scan against the
// per-candidate-lookup baseline over one skewed corpus at every
// selectivity band. Probe widening is pinned off (FilterMaxNProbe below
// the query width) so both paths scan the identical lists and the
// difference is pure admission cost; the 100% band uses a price floor
// every image passes, so the filtered machinery runs without rejecting
// anything.
func BenchmarkFilteredScan(b *testing.B) {
	const n, dim, nlists, nprobe = 50_000, 64, 64, 8
	rng := rand.New(rand.NewSource(43))
	feats := clusteredFeatures(rng, n, dim, 48, 0.25)
	train := make([]float32, 0, 2000*dim)
	for i := 0; i < 2000; i++ {
		train = append(train, feats[i]...)
	}
	s, err := New(Config{Dim: dim, NLists: nlists, DefaultNProbe: nprobe, SearchWorkers: 1, FilterMaxNProbe: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Train(train, 1); err != nil {
		b.Fatal(err)
	}
	for i, f := range feats {
		a := filterAttrs(i, n)
		if _, _, err := s.Insert(a, f); err != nil {
			b.Fatal(err)
		}
	}
	bands := []struct {
		name string
		req  core.SearchRequest
	}{
		{"selectivity=0.1%", core.SearchRequest{Category: 1}},
		{"selectivity=1%", core.SearchRequest{Category: 2}},
		{"selectivity=10%", core.SearchRequest{Category: 3}},
		{"selectivity=100%", core.SearchRequest{Category: -1, MinPriceCents: 1}},
	}
	for _, band := range bands {
		req := band.req
		req.TopK = 10
		req.NProbe = nprobe
		b.Run(band.name+"/path=bitmap", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := req
				r.Feature = feats[(i*37)%n]
				if _, err := s.Search(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(band.name+"/path=lookup", func(b *testing.B) {
			sel := topk.New(req.TopK)
			var probe []int
			var probeDist []float32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := req
				r.Feature = feats[(i*37)%n]
				probe, probeDist = filteredScanBaseline(s, &r, probe, probeDist, sel)
			}
		})
	}
}

// BenchmarkInsertFresh measures indexing a brand-new image (forward
// append + feature row + cluster assign + inverted append + bitmap).
func BenchmarkInsertFresh(b *testing.B) {
	s, _ := benchShard(b, 1_000)
	rng := rand.New(rand.NewSource(9))
	const dim = 64
	feats := make([][]float32, 4096)
	for i := range feats {
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(rng.NormFloat64())
		}
		feats[i] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Attrs{ProductID: uint64(10_000 + i), URL: fmt.Sprintf("jfs://fresh/p%d.jpg", i)}
		if _, _, err := s.Insert(a, feats[i%len(feats)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertReuse measures the re-listing path (§2.3): bitmap flip
// plus attribute refresh, no structural work.
func BenchmarkInsertReuse(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Attrs{ProductID: uint64(i%10_000 + 1), URL: fmt.Sprintf("jfs://bench/p%d.jpg", i%10_000)}
		if _, reused, err := s.Insert(a, nil); err != nil || !reused {
			b.Fatal("reuse path broke")
		}
	}
}

// BenchmarkRemoveProduct measures deletion: one bitmap flip per image.
func BenchmarkRemoveProduct(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%10_000 + 1)
		if i%2 == 0 {
			_, _ = s.RemoveProduct(id)
		} else {
			_, _, _ = s.Insert(core.Attrs{ProductID: id, URL: fmt.Sprintf("jfs://bench/p%d.jpg", i%10_000)}, nil)
		}
	}
}

// BenchmarkUpdateAttrs measures the Fig. 7 product-level numeric update.
func BenchmarkUpdateAttrs(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.UpdateAttrs(uint64(i%10_000+1), uint32(i), 50, 999, uint16(i%8)); err != nil {
			b.Fatal(err)
		}
	}
}
