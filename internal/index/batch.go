package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"

	"jdvs/internal/core"
	"jdvs/internal/pq"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// batchQuery is one member of an in-flight SearchBatch: the per-query
// state (scratch, admission filter, ADC lookup table, candidate
// selector) that the shared inverted-list traversal scores against.
type batchQuery struct {
	req     *core.SearchRequest
	idx     int // position in the caller's request slice
	k       int
	rerankK int
	sc      *searchScratch
	adm     admission
	lutp    *[]float32
	sel     *topk.Selector
	scanned int
}

// SearchBatch executes several queries in one pass over the shard's
// inverted lists. Each query keeps its own probe set, admission filter,
// lookup table and top-k selector — exactly as Search builds them — but
// the scan visits each probed list once, scoring every batched query that
// probes it against the same resident code bytes. On the 4-bit fast-scan
// path that means a code block is loaded once and swept through
// pq.ScanBlock4 for each member while it is still cache-hot; on the 8-bit
// path a candidate's code row is read once and scored per member. Requests
// that are identical field for field are single-flighted: one member scans
// on behalf of all of them and the duplicates receive copies of its
// response. Batch members are scored on the calling goroutine — the batch
// itself is the concurrency — so SearchWorkers does not apply here.
//
// Results are exactly the per-query Search results over the same corpus
// snapshot: candidate selection is a pure function of the scored
// candidate multiset (topk orders by (Dist, ID), so push order is
// irrelevant), and every kernel path is bit-identical by the summation
// contract in pq/kernel_generic.go. The returned slices are parallel to
// reqs: position i holds the query's response or its error.
//
// Shards without a product quantizer fall back to per-query Search: exact
// scoring reads a feature row per candidate either way, so there is no
// shared work for a batch to amortise.
func (s *Shard) SearchBatch(reqs []*core.SearchRequest) ([]*core.SearchResponse, []error) {
	resps := make([]*core.SearchResponse, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return resps, errs
	}
	ps := s.pqState.Load()
	if len(reqs) == 1 || ps == nil {
		for i, req := range reqs {
			resps[i], errs[i] = s.Search(req)
		}
		return resps, errs
	}
	// Raw rows are read during the per-query exact re-rank; keep a
	// disk-backed store's mapping alive for the duration (see Search).
	defer runtime.KeepAlive(s)

	// Single-flight identical requests: the skewed concurrent traffic this
	// path exists for routinely lands the same hot query several times in
	// one collection window. A duplicate rides its leader — one lookup
	// table, one share of every list scan — and takes a deep copy of the
	// leader's response (batch members belong to different caller
	// goroutines, which mutate their hits after the batch returns).
	leaderOf := make([]int, len(reqs))
	seen := make(map[string]int, len(reqs))
	var kbuf []byte
	for i, req := range reqs {
		kbuf = batchKey(kbuf, req)
		if j, ok := seen[string(kbuf)]; ok {
			leaderOf[i] = j
			continue
		}
		seen[string(kbuf)] = i
		leaderOf[i] = i
	}

	members := make([]*batchQuery, 0, len(reqs))
	defer func() {
		for _, q := range members {
			lutPool.Put(q.lutp)
			searchScratchPool.Put(q.sc)
		}
	}()

	// Per-query setup, mirroring Search step for step so a batched query
	// probes the same lists at the same re-rank depth as an unbatched one.
	for i, req := range reqs {
		if leaderOf[i] != i {
			continue
		}
		if s.codebook == nil {
			errs[i] = ErrNotTrained
			continue
		}
		if len(req.Feature) != s.cfg.Dim {
			errs[i] = fmt.Errorf("index: query dim %d, shard dim %d", len(req.Feature), s.cfg.Dim)
			continue
		}
		k := req.TopK
		if k <= 0 {
			k = 10
		}
		if k > MaxTopK {
			k = MaxTopK
		}
		nprobe := req.NProbe
		if nprobe <= 0 {
			nprobe = s.cfg.DefaultNProbe
		}
		sc := searchScratchPool.Get().(*searchScratch)
		adm := s.buildAdmission(req, sc)
		rerankBoost := 1
		if adm.live == nil {
			s.filteredSearches.Add(1)
			if adm.matches == 0 && adm.exhaustive {
				resps[i] = &core.SearchResponse{}
				searchScratchPool.Put(sc)
				continue
			}
			widened := s.widenNProbe(nprobe, k, adm.matches)
			if widened > nprobe {
				rerankBoost = (widened + nprobe - 1) / nprobe
				nprobe = widened
			}
		}
		sc.probe, sc.probeDist = vecmath.TopCentroidsInto(
			sc.probe, sc.probeDist, req.Feature, s.codebook.Centroids, s.cfg.Dim, nprobe)
		lutp := lutPool.Get().(*[]float32)
		*lutp, _ = ps.cb.BuildLUT(req.Feature, *lutp)
		rerankK := s.widenRerank(s.rerankDepth(k, ps.cb.Bits), rerankBoost)
		members = append(members, &batchQuery{
			req:     req,
			idx:     i,
			k:       k,
			rerankK: rerankK,
			sc:      sc,
			adm:     adm,
			lutp:    lutp,
			sel:     sc.selectors(1, rerankK)[0],
		})
	}
	if len(members) == 0 {
		return resps, errs
	}

	// Invert the probe sets: list → the batch members that probe it, so
	// the traversal below touches each list's codes exactly once. The
	// sorted order only makes traversal deterministic; results do not
	// depend on it.
	byList := make(map[int][]*batchQuery, len(members)*len(members[0].sc.probe))
	for _, q := range members {
		for _, l := range q.sc.probe {
			byList[l] = append(byList[l], q)
		}
	}
	lists := make([]int, 0, len(byList))
	for l := range byList {
		lists = append(lists, l)
	}
	sort.Ints(lists)

	if ps.lists != nil {
		s.scanBatchADC4(lists, byList, members, ps)
	} else {
		s.scanBatchADC(lists, byList, ps)
	}

	for _, q := range members {
		sc := q.sc
		sc.handOff(q.sel)
		items := s.rerankExact(q.req, q.k, sc, &q.adm)
		resps[q.idx] = s.assembleResponse(items, q.scanned, len(sc.probe))
	}
	for i, j := range leaderOf {
		if j == i {
			continue
		}
		errs[i] = errs[j]
		if r := resps[j]; r != nil {
			cp := *r
			// Deep-copy the hits: batch members belong to concurrent
			// callers, and the searcher stamps its partition into each
			// hit after the batch returns — aliased hit slices would race.
			cp.Hits = append([]core.Hit(nil), r.Hits...)
			resps[i] = &cp
		}
	}
	return resps, errs
}

// batchKey renders a request's full identity — the feature's bit pattern
// and every scalar parameter — into buf, reused across calls. Two requests
// with equal keys are answered identically by Search, which is what lets
// SearchBatch single-flight them.
func batchKey(buf []byte, req *core.SearchRequest) []byte {
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.TopK))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.NProbe))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Category))
	buf = binary.LittleEndian.AppendUint32(buf, req.MinPriceCents)
	buf = binary.LittleEndian.AppendUint32(buf, req.MaxPriceCents)
	buf = binary.LittleEndian.AppendUint32(buf, req.MinSales)
	for _, v := range req.Feature {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// scanBatchADC4 is the batched 4-bit fast-scan traversal: one id snapshot
// and one pass over the blocked codes per list, with every member that
// probes the list scoring each code block while its bytes are resident.
// Per-member skip/admit/push logic is identical to scanListsADC4, and the
// scanned count keeps that path's "codes scored" semantics per member.
func (s *Shard) scanBatchADC4(lists []int, byList map[int][]*batchQuery, members []*batchQuery, ps *shardPQ) {
	mb := ps.cb.CodeBytes()
	var dists [pq.BlockCodes]float32
	// The id snapshot buffer is borrowed from the first member's scratch:
	// the batch traversal is serial, so worker slot 0 is free.
	host := members[0].sc
	host.ensureIDBufs(1)
	ids := host.ids[0][:0]
	for _, l := range lists {
		qs := byList[l]
		ids = ids[:0]
		s.inv.Scan(l, func(id uint32) bool { ids = append(ids, id); return true })
		for _, q := range qs {
			q.scanned += len(ids)
		}
		blocks := ps.lists[l]
		full := len(ids) / pq.BlockCodes
		for b := 0; b < full; b++ {
			blk := blocks.block(b)
			base := b * pq.BlockCodes
			for _, q := range qs {
				pq.ScanBlock4(*q.lutp, blk, mb, &dists)
				worst, bounded := q.sel.WorstDist()
				for sl, d := range dists {
					// See scanListsADC4: the threshold skip never changes
					// the selected set, it only skips admission reads.
					if bounded && d > worst {
						continue
					}
					id := ids[base+sl]
					if !q.adm.admit(id) {
						continue
					}
					if q.sel.Push(uint64(id), d) {
						worst, bounded = q.sel.WorstDist()
					}
				}
			}
		}
		if tail := len(ids) % pq.BlockCodes; tail > 0 {
			// Partially filled tail block: per-slot scalar path touching
			// only published slots' lane bytes (see scanListsADC4).
			blk := blocks.block(full)
			base := full * pq.BlockCodes
			for _, q := range qs {
				for sl := 0; sl < tail; sl++ {
					d := pq.ADCDistBlockSlot(*q.lutp, blk, mb, sl)
					id := ids[base+sl]
					if !q.adm.admit(id) {
						continue
					}
					q.sel.Push(uint64(id), d)
				}
			}
		}
	}
	host.ids[0] = ids
}

// scanBatchADC is the batched 8-bit traversal: each candidate's code row
// is located once per list visit and scored against every member that
// probes the list. Per-member admit/score order matches scanListsADC, so
// the per-member scanned count keeps that path's "candidates admitted"
// semantics.
func (s *Shard) scanBatchADC(lists []int, byList map[int][]*batchQuery, ps *shardPQ) {
	for _, l := range lists {
		qs := byList[l]
		s.inv.Scan(l, func(id uint32) bool {
			code := ps.codes.Row(id)
			for _, q := range qs {
				if !q.adm.admit(id) {
					continue
				}
				if code == nil {
					continue
				}
				q.scanned++
				q.sel.Push(uint64(id), pq.ADCDist(*q.lutp, code))
			}
			return true
		})
	}
}
