// Package topk implements bounded top-k selection over (id, distance)
// pairs.
//
// Searchers use a Selector to keep the k nearest images while scanning
// inverted lists. Because a selector's retained set is a pure function of
// the candidate multiset, the per-worker selectors of a parallel scan are
// combined by pushing one's items into another — no sorted merge needed.
package topk

import (
	"cmp"
	"slices"
)

// Item is a candidate search result: an opaque 64-bit identifier and its
// distance to the query. Lower distance is better.
type Item struct {
	ID   uint64
	Dist float32
}

// Selector keeps the k smallest-distance items seen so far using a bounded
// binary max-heap: the root is the current worst of the best k, so a new
// candidate either beats the root (replace + sift down) or is rejected in
// O(1). Items are ordered by (Dist, ID), so among equal distances the
// smallest IDs are retained: the selection is a pure function of the
// candidate multiset, independent of push order — which is what lets a
// striped parallel scan reproduce the serial scan exactly even when
// distances tie at the k boundary. The zero Selector is not usable; call
// New.
type Selector struct {
	k    int
	heap []Item // max-heap on Dist
}

// New returns a Selector that retains the k closest items. k must be
// positive.
func New(k int) *Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Selector{k: k, heap: make([]Item, 0, k)}
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns the number of items currently held (≤ k).
func (s *Selector) Len() int { return len(s.heap) }

// Full reports whether the selector holds k items.
func (s *Selector) Full() bool { return len(s.heap) == s.k }

// WorstDist returns the largest distance among retained items, or +Inf-like
// sentinel behaviour: if the selector is not yet full it returns false in
// the second result, meaning every candidate should be pushed.
func (s *Selector) WorstDist() (float32, bool) {
	if len(s.heap) < s.k {
		return 0, false
	}
	return s.heap[0].Dist, true
}

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

// Push offers a candidate. It returns true if the candidate was retained.
func (s *Selector) Push(id uint64, dist float32) bool {
	cand := Item{ID: id, Dist: dist}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, cand)
		s.siftUp(len(s.heap) - 1)
		return true
	}
	if !itemLess(cand, s.heap[0]) {
		return false
	}
	s.heap[0] = cand
	s.siftDown(0)
	return true
}

// ResetK drops all retained items and reconfigures the selector to retain
// the k closest, reusing the existing backing array when it is large
// enough. It lets pooled selectors serve queries of varying k without
// reallocating. k must be positive.
func (s *Selector) ResetK(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	s.k = k
	if cap(s.heap) < k {
		s.heap = make([]Item, 0, k)
		return
	}
	s.heap = s.heap[:0]
}

// Sorted sorts the retained items in place by ascending distance (ties
// broken by ascending ID) and returns the selector's internal slice,
// without allocating, which makes it the drain for pooled per-query
// selectors. Sorting destroys the heap invariant: call ResetK before
// pushing again, and treat the returned slice as invalidated by any
// subsequent use of the selector.
func (s *Selector) Sorted() []Item {
	Sort(s.heap)
	return s.heap
}

// Unordered returns the retained items in unspecified order — exactly the
// multiset Sorted would return — as the selector's internal slice, without
// sorting or allocating. It leaves the heap intact, so the selector may
// keep accepting pushes, but any Push, ResetK or Sorted invalidates the
// returned slice: copy it before reusing the selector. It is the drain
// for consumers that select again anyway, such as folding one worker's
// selector into another or re-ranking a candidate set.
func (s *Selector) Unordered() []Item { return s.heap }

func (s *Selector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(s.heap[parent], s.heap[i]) {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Selector) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && itemLess(s.heap[largest], s.heap[l]) {
			largest = l
		}
		if r < n && itemLess(s.heap[largest], s.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}
