package topk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	New(0)
}

func TestSelectorBasics(t *testing.T) {
	s := New(3)
	if s.K() != 3 || s.Len() != 0 || s.Full() {
		t.Fatalf("fresh selector state wrong: k=%d len=%d full=%v", s.K(), s.Len(), s.Full())
	}
	if _, ok := s.WorstDist(); ok {
		t.Fatal("WorstDist should report not-full")
	}
	s.Push(1, 5)
	s.Push(2, 1)
	s.Push(3, 3)
	if !s.Full() {
		t.Fatal("selector should be full after 3 pushes")
	}
	if w, ok := s.WorstDist(); !ok || w != 5 {
		t.Fatalf("WorstDist = %v,%v, want 5,true", w, ok)
	}
	// A better candidate evicts the worst.
	if !s.Push(4, 2) {
		t.Fatal("better candidate rejected")
	}
	// A worse candidate is rejected.
	if s.Push(5, 100) {
		t.Fatal("worse candidate accepted")
	}
	got := s.Sorted()
	want := []Item{{2, 1}, {4, 2}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	// Selector is reusable after ResetK.
	s.ResetK(3)
	if s.Len() != 0 {
		t.Fatal("selector not drained by ResetK")
	}
	s.Push(9, 1)
	if s.Len() != 1 {
		t.Fatal("selector unusable after ResetK")
	}
}

func TestSelectorTieBreaksByID(t *testing.T) {
	s := New(4)
	s.Push(30, 1)
	s.Push(10, 1)
	s.Push(20, 1)
	got := s.Sorted()
	for i, want := range []uint64{10, 20, 30} {
		if got[i].ID != want {
			t.Fatalf("tie-break order wrong: %v", got)
		}
	}
}

// TestSelectorBoundaryTieKeepsSmallestID pins the push-order independence
// the parallel scan relies on: when candidates tie in distance at the k
// boundary, the smallest ID is retained no matter which arrived first.
func TestSelectorBoundaryTieKeepsSmallestID(t *testing.T) {
	for _, order := range [][]uint64{{9, 5}, {5, 9}} {
		s := New(1)
		for _, id := range order {
			s.Push(id, 2)
		}
		got := s.Sorted()
		if len(got) != 1 || got[0].ID != 5 {
			t.Fatalf("push order %v: retained %v, want ID 5", order, got)
		}
	}
}

// TestSelectorMatchesSortOracle compares against sorting the full candidate
// list, across many random workloads.
func TestSelectorMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		n := rng.Intn(200)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: uint64(i), Dist: float32(rng.Intn(50))} // duplicates likely
		}
		s := New(k)
		for _, it := range items {
			s.Push(it.ID, it.Dist)
		}
		got := s.Sorted()

		oracle := make([]Item, n)
		copy(oracle, items)
		sort.Slice(oracle, func(i, j int) bool {
			if oracle[i].Dist != oracle[j].Dist {
				return oracle[i].Dist < oracle[j].Dist
			}
			return oracle[i].ID < oracle[j].ID
		})
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		if len(got) != len(oracle) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(oracle))
		}
		for i := range oracle {
			// Selection is by (Dist, ID), so retained items — including
			// which IDs survive a tie cut at the boundary — must match the
			// oracle exactly, independent of push order.
			if got[i] != oracle[i] {
				t.Fatalf("trial %d item %d: got %v, want %v\ngot:  %v\nwant: %v",
					trial, i, got[i], oracle[i], got, oracle)
			}
		}
	}
}

// Property: results are always sorted and never exceed k.
func TestSelectorResultsSortedProperty(t *testing.T) {
	f := func(dists []float32, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		s := New(k)
		for i, d := range dists {
			s.Push(uint64(i), d)
		}
		got := s.Sorted()
		if len(got) > k {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResetKReconfigures(t *testing.T) {
	s := New(3)
	for i := 0; i < 5; i++ {
		s.Push(uint64(i), float32(i))
	}
	s.ResetK(5)
	if s.K() != 5 || s.Len() != 0 {
		t.Fatalf("after ResetK(5): k=%d len=%d", s.K(), s.Len())
	}
	for i := 0; i < 10; i++ {
		s.Push(uint64(i), float32(10-i))
	}
	got := s.Sorted()
	if len(got) != 5 {
		t.Fatalf("Sorted len = %d, want 5", len(got))
	}
	for i, it := range got {
		if want := uint64(9 - i); it.ID != want {
			t.Fatalf("Sorted[%d].ID = %d, want %d", i, it.ID, want)
		}
	}
	// Shrinking reuses the backing array and keeps selection correct.
	s.ResetK(2)
	for i := 0; i < 10; i++ {
		s.Push(uint64(i), float32(i))
	}
	got = s.Sorted()
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("after shrink: %v", got)
	}
}

func TestResetKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ResetK(0) did not panic")
		}
	}()
	New(1).ResetK(0)
}

// TestMergeMatchesSortOracle validates the parallel scan's merge —
// folding every per-worker selector into worker 0's by pushing its
// unordered items — against concatenate-and-sort and against one selector
// fed every candidate. IDs are dealt to workers at random and distances
// are drawn from a narrow range, so (Dist, ID) ties at the k boundary
// routinely straddle workers.
func TestMergeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		workers := 1 + rng.Intn(5)
		k := 1 + rng.Intn(15)
		n := rng.Intn(25 * workers)
		all := make([]Item, n)
		for i, id := range rng.Perm(n) {
			all[i] = Item{ID: uint64(id), Dist: float32(rng.Intn(12))}
		}
		sels := make([]*Selector, workers)
		for w := range sels {
			sels[w] = New(k)
		}
		single := New(k)
		for _, it := range all {
			sels[rng.Intn(workers)].Push(it.ID, it.Dist)
			single.Push(it.ID, it.Dist)
		}
		for w := 1; w < workers; w++ {
			for _, it := range sels[w].Unordered() {
				sels[0].Push(it.ID, it.Dist)
			}
		}
		got := append([]Item(nil), sels[0].Unordered()...)
		Sort(got)

		oracle := append([]Item(nil), all...)
		sort.Slice(oracle, func(i, j int) bool {
			if oracle[i].Dist != oracle[j].Dist {
				return oracle[i].Dist < oracle[j].Dist
			}
			return oracle[i].ID < oracle[j].ID
		})
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		if !slices.Equal(got, oracle) {
			t.Fatalf("trial %d: folded selectors disagree with sort oracle:\ngot  %v\nwant %v", trial, got, oracle)
		}
		if want := single.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: folded selectors disagree with one selector:\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestSortedMatchesResults checks the allocation-free sorted drain returns
// the same sequence as the unordered drain put in (Dist, ID) order with
// Sort — the results the scan's re-rank hand-off works from.
func TestSortedMatchesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		a, b := New(k), New(k)
		for i := 0; i < rng.Intn(40); i++ {
			id, d := uint64(rng.Intn(100)), float32(rng.Intn(20))
			a.Push(id, d)
			b.Push(id, d)
		}
		want := append([]Item(nil), b.Unordered()...)
		Sort(want)
		if got := a.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Sorted %v, sorted Unordered %v", trial, got, want)
		}
	}
}
