// Package topk implements bounded top-k selection over (id, distance)
// pairs.
//
// Searchers use a Selector to keep the k nearest images while scanning
// inverted lists. A Selector is a reservoir, as in FAISS's ReservoirTopN:
// candidates below a threshold are appended to a buffer of 2k, and when
// the buffer fills an in-place quickselect keeps the k best and tightens
// the threshold. Accepting a candidate is one comparison and one store —
// no heap sift — which matters when, as in the searcher's 900-deep ADC
// over-fetch, most scored candidates are accepted.
//
// Because a selector's retained set is a pure function of the candidate
// multiset, the per-worker selectors of a parallel scan are combined by
// pushing one's items into another — no sorted merge needed.
package topk

import (
	"cmp"
	"math/bits"
	"slices"
)

// Item is a candidate search result: an opaque 64-bit identifier and its
// distance to the query. Lower distance is better.
type Item struct {
	ID   uint64
	Dist float32
}

// Selector keeps the k smallest items seen so far in (Dist, ID) order:
// among equal distances the smallest IDs are retained, so the selection is
// a pure function of the candidate multiset, independent of push order —
// which is what lets a striped parallel scan reproduce the serial scan
// exactly even when distances tie at the k boundary.
//
// Pushed candidates go to a buffer of capacity 2k. Once k items have been
// seen, a threshold — the k-th best item at the last compaction — rejects
// anything not below it in O(1); when the buffer fills, compaction
// partitions it in place around the k-th best, drops the rest and moves
// the threshold there. The zero Selector is not usable; call New.
type Selector struct {
	k     int
	items []Item // the buffer: capacity ≥ 2k, every item below thresh
	// limit is the buffer length that triggers compaction: k until the
	// first compaction (so the threshold is exact once k items are held),
	// 2k after it.
	limit   int
	thresh  Item // the k-th best item at the last compaction
	bounded bool // thresh is set: at least k items have been pushed
}

// New returns a Selector that retains the k closest items. k must be
// positive.
func New(k int) *Selector {
	s := &Selector{}
	s.ResetK(k)
	return s
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns the number of items currently retained (≤ k): the buffer
// may hold more, but compaction would keep exactly k of them.
func (s *Selector) Len() int { return min(len(s.items), s.k) }

// Full reports whether the selector holds k items.
func (s *Selector) Full() bool { return s.bounded }

// WorstDist returns the threshold's distance: an upper bound on the
// largest distance among the k best items seen so far, exact right after
// the k-th push and after each compaction. Push rejects every candidate
// farther than it, so a scan may skip those without pushing them. The
// second result is false until k items have been pushed, meaning every
// candidate should be pushed.
func (s *Selector) WorstDist() (float32, bool) { return s.thresh.Dist, s.bounded }

// itemLess orders items by (Dist, ID) ascending — the selector's total
// order, shared with Sort.
func itemLess(a, b Item) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// compareItems is itemLess as a three-way comparison for slices.SortFunc.
func compareItems(a, b Item) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// Sort sorts items in place by ascending distance, ties broken by
// ascending ID — the order Sorted returns.
func Sort(items []Item) { slices.SortFunc(items, compareItems) }

// Push offers a candidate. It returns false if the candidate was rejected
// outright, being no better than the threshold; true means it was
// buffered, and it stays retained unless k better items arrive later.
func (s *Selector) Push(id uint64, dist float32) bool {
	cand := Item{ID: id, Dist: dist}
	if s.bounded && !itemLess(cand, s.thresh) {
		return false
	}
	// The buffer never outgrows its capacity (limit ≤ 2k ≤ cap), so a
	// reslice stands in for append and its growth path.
	n := len(s.items)
	s.items = s.items[:n+1]
	s.items[n] = cand
	if n+1 == s.limit {
		s.compact()
	}
	return true
}

// compact keeps the k best buffered items and moves the threshold to the
// k-th of them. The buffer must hold at least k items.
func (s *Selector) compact() {
	selectNth(s.items, s.k-1)
	s.items = s.items[:s.k]
	s.thresh = s.items[s.k-1]
	s.bounded = true
	s.limit = 2 * s.k
}

// ResetK drops all retained items and reconfigures the selector to retain
// the k closest, reusing the existing buffer when it is large enough. It
// lets pooled selectors serve queries of varying k without reallocating.
// k must be positive.
func (s *Selector) ResetK(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	s.k, s.limit, s.bounded = k, k, false
	if cap(s.items) < 2*k {
		s.items = make([]Item, 0, 2*k)
		return
	}
	s.items = s.items[:0]
}

// Unordered returns the retained items in unspecified order — exactly the
// multiset Sorted would return — as the selector's internal slice, without
// sorting or allocating. It compacts the buffer first, which leaves the
// retained set unchanged, so the selector may keep accepting pushes, but
// any Push, ResetK or Sorted invalidates the returned slice: copy it
// before reusing the selector. It is the drain for consumers that select
// again anyway, such as folding one worker's selector into another or
// re-ranking a candidate set.
func (s *Selector) Unordered() []Item {
	if len(s.items) > s.k {
		s.compact()
	}
	return s.items
}

// Sorted sorts the retained items in place by ascending distance (ties
// broken by ascending ID) and returns the selector's internal slice,
// without allocating, which makes it the drain for pooled per-query
// selectors. Treat the returned slice as invalidated by any subsequent
// use of the selector.
func (s *Selector) Sorted() []Item {
	items := s.Unordered()
	Sort(items)
	return items
}

// Ranges at most this long are finished by insertion sort in selectNth.
const insertionMax = 12

// selectNth reorders items in place so that items[n] is the item of rank
// n in (Dist, ID) order, none of items[:n] orders after it and none of
// items[n+1:] before it. It is an introselect: quickselect around a
// median-of-three (ninther on long ranges) pivot, which falls back to
// sorting the remaining range once it has partitioned 2·log₂(len) times
// without finishing, so no input costs more than O(n log n) comparisons.
// It returns the number of comparisons made, which only tests read.
func selectNth(items []Item, n int) (cmps int) {
	if last := len(items) - 1; n == last {
		// The maximum — what a selector's first compaction asks for —
		// takes one pass.
		m := 0
		for i := 1; i <= last; i++ {
			if itemLess(items[m], items[i]) {
				m = i
			}
		}
		items[m], items[last] = items[last], items[m]
		return last
	}
	lo, hi := 0, len(items)
	rounds := 2 * bits.Len(uint(len(items)))
	for hi-lo > insertionMax {
		if rounds == 0 {
			slices.SortFunc(items[lo:hi], func(a, b Item) int {
				cmps++
				return compareItems(a, b)
			})
			return cmps
		}
		rounds--
		pi, c := pivot(items, lo, hi)
		cmps += c
		last := hi - 1
		items[pi], items[last] = items[last], items[pi]
		p := items[last]
		// Lomuto partition with an unconditional swap and a branch-free
		// advance: items[lo:i] < p ≤ items[i:j] throughout. Every loop is
		// bounded by the range, and every round retires the pivot, so
		// even an inconsistent order (a NaN distance) terminates.
		i := lo
		for j := lo; j < last; j++ {
			x := items[j]
			items[j] = items[i]
			items[i] = x
			i += lessBit(x, p)
		}
		cmps += last - lo
		items[i], items[last] = items[last], items[i]
		switch {
		case i == lo:
			// p is the range's minimum. Gather the items equal to it
			// behind it, or a run of identical items would retire one
			// per round.
			e := lo + 1
			for j := lo + 1; j < hi; j++ {
				x := items[j]
				items[j] = items[e]
				items[e] = x
				e += 1 - lessBit(p, x)
			}
			cmps += hi - lo - 1
			if n < e {
				return cmps
			}
			lo = e
		case n < i:
			hi = i
		case n == i:
			return cmps
		default:
			lo = i + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo; j-- {
			cmps++
			if !itemLess(items[j], items[j-1]) {
				break
			}
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	return cmps
}

// lessBit is itemLess as 0 or 1, written so that the compiler emits
// conditional moves rather than a branch: comparisons against a pivot
// are coin flips no branch predictor learns, and a mispredict per item
// would cost more than the partition's whole loop body.
func lessBit(a, b Item) int {
	r := 0
	if a.Dist < b.Dist {
		r = 1
	}
	if a.Dist == b.Dist && a.ID < b.ID {
		r = 1
	}
	return r
}

// pivot picks the index of a partition pivot in items[lo:hi] (longer than
// insertionMax): the median of its first, middle and last items, or on
// long ranges Tukey's ninther, the median of three such medians spread
// over the range, which keeps sorted, reverse-sorted and organ-pipe
// inputs splitting near the middle. It returns the index and the
// comparisons spent.
func pivot(items []Item, lo, hi int) (int, int) {
	m, h := lo+(hi-lo)/2, hi-1
	if hi-lo < 64 {
		return median3(items, lo, m, h), 3
	}
	s := (hi - lo) / 8
	a := median3(items, lo, lo+s, lo+2*s)
	b := median3(items, m-s, m, m+s)
	c := median3(items, h-2*s, h-s, h)
	return median3(items, a, b, c), 12
}

// median3 returns whichever of the indices a, b and c holds the median
// of their items in (Dist, ID) order.
func median3(items []Item, a, b, c int) int {
	if itemLess(items[b], items[a]) {
		a, b = b, a
	}
	if itemLess(items[c], items[b]) {
		b = c
		if itemLess(items[b], items[a]) {
			b = a
		}
	}
	return b
}
