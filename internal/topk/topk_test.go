package topk

import (
	"fmt"
	"math"
	"math/bits"
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

// sortOracle returns the k best of items in (Dist, ID) order, by sorting
// a copy of all of them.
func sortOracle(items []Item, k int) []Item {
	oracle := append([]Item(nil), items...)
	sort.Slice(oracle, func(i, j int) bool { return itemLess(oracle[i], oracle[j]) })
	if len(oracle) > k {
		oracle = oracle[:k]
	}
	return oracle
}

// tiedCandidates returns n candidates with distinct IDs in shuffled order
// and distances drawn from about n/3 values, so ties are common — at the
// k boundary too.
func tiedCandidates(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i, id := range rng.Perm(n) {
		items[i] = Item{ID: uint64(id), Dist: float32(rng.Intn(n/3 + 1))}
	}
	return items
}

// reservoirNs lists the candidate counts tried at capacity k: every n from
// 0 to 4k for small k; for large k the compaction boundaries around k, 2k,
// 3k and 4k plus a stride through the rest.
func reservoirNs(k int) []int {
	var ns []int
	if k <= 30 {
		for n := 0; n <= 4*k; n++ {
			ns = append(ns, n)
		}
		return ns
	}
	for m := 1; m <= 4; m++ {
		ns = append(ns, m*k-1, m*k, m*k+1)
	}
	for n := 0; n <= 4*k; n += 97 {
		ns = append(ns, n)
	}
	return ns
}

// TestReservoirMatchesSortOracle checks the reservoir against sorting the
// whole candidate list across capacities from 1 to the searcher's 900-deep
// over-fetch, every fill level up to four buffers' worth (so zero to
// several compactions), shuffled push orders and boundary ties.
func TestReservoirMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{1, 2, 3, 30, 900} {
		s := New(k)
		for _, n := range reservoirNs(k) {
			items := tiedCandidates(rng, n)
			s.ResetK(k)
			for _, it := range items {
				s.Push(it.ID, it.Dist)
			}
			want := sortOracle(items, k)
			if s.Len() != len(want) {
				t.Fatalf("k=%d n=%d: Len %d, want %d", k, n, s.Len(), len(want))
			}
			got := append([]Item(nil), s.Unordered()...)
			Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d n=%d: Unordered disagrees with sort oracle:\ngot  %v\nwant %v", k, n, got, want)
			}
			if got := s.Sorted(); !slices.Equal(got, want) {
				t.Fatalf("k=%d n=%d: Sorted disagrees with sort oracle:\ngot  %v\nwant %v", k, n, got, want)
			}
		}
	}
}

// TestReservoirFoldInterleaved replays the parallel scan's fold: each
// worker selector's Unordered drain is pushed into worker 0's, with the
// scan's WorstDist reads interleaved between pushes (and used to skip, as
// the 4-bit scan does), and worker 0 keeps scanning after being drained.
func TestReservoirFoldInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		k := []int{1, 2, 3, 30, 900}[trial%5]
		workers := 2 + rng.Intn(3)
		all := tiedCandidates(rng, rng.Intn(4*k+1)*workers/2)
		sels := make([]*Selector, workers)
		for w := range sels {
			sels[w] = New(k)
		}
		// Worker 0 is drained once mid-scan and then scans on.
		half := len(all) / 2
		for _, it := range all[:half] {
			sels[rng.Intn(workers)].Push(it.ID, it.Dist)
		}
		_ = sels[0].Unordered()
		for _, it := range all[half:] {
			sels[rng.Intn(workers)].Push(it.ID, it.Dist)
		}
		for w := 1; w < workers; w++ {
			for _, it := range sels[w].Unordered() {
				if worst, ok := sels[0].WorstDist(); ok && it.Dist > worst {
					continue
				}
				sels[0].Push(it.ID, it.Dist)
			}
		}
		got := append([]Item(nil), sels[0].Unordered()...)
		Sort(got)
		if want := sortOracle(all, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d, %d workers, n=%d): fold disagrees with sort oracle:\ngot  %v\nwant %v",
				trial, k, workers, len(all), got, want)
		}
	}
}

// TestResetKGrowsAndShrinks runs one pooled selector through capacities
// that grow past and shrink below its buffer, checking every query's
// selection and that a shrink or a regrow within capacity allocates
// nothing.
func TestResetKGrowsAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := New(2)
	for _, k := range []int{2, 900, 3, 30, 1, 900, 2, 300} {
		items := tiedCandidates(rng, 3*k+7)
		s.ResetK(k)
		for _, it := range items {
			s.Push(it.ID, it.Dist)
		}
		if got, want := s.Sorted(), sortOracle(items, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
	items := tiedCandidates(rng, 2000)
	allocs := testing.AllocsPerRun(20, func() {
		for _, k := range []int{900, 1, 30, 900} {
			s.ResetK(k)
			for _, it := range items {
				s.Push(it.ID, it.Dist)
			}
			s.Sorted()
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled selector allocated %.0f times per run", allocs)
	}
}

// TestWorstDistSkipSafety pins what the 4-bit scan's d > worst skip
// relies on: after every push, WorstDist is no better than the true k-th
// best so far (exactly it right after the k-th push), and Push rejects a
// candidate just above it.
func TestWorstDistSkipSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 2, 3, 30, 900} {
		items := tiedCandidates(rng, 4*k+5)
		s := New(k)
		var prefix []float32 // sorted distances pushed so far
		for i, it := range items {
			s.Push(it.ID, it.Dist)
			j, _ := slices.BinarySearch(prefix, it.Dist)
			prefix = slices.Insert(prefix, j, it.Dist)
			worst, ok := s.WorstDist()
			if ok != (i+1 >= k) {
				t.Fatalf("k=%d after %d pushes: bounded=%v", k, i+1, ok)
			}
			if !ok {
				continue
			}
			kth := prefix[k-1]
			if worst < kth || (i+1 == k && worst != kth) {
				t.Fatalf("k=%d after %d pushes: WorstDist %v, true k-th best %v", k, i+1, worst, kth)
			}
			if s.Push(uint64(1<<40+i), math.Nextafter32(worst, float32(math.Inf(1)))) {
				t.Fatalf("k=%d after %d pushes: accepted a candidate above WorstDist %v", k, i+1, worst)
			}
		}
	}
}

// TestSelectNthComparisonBudget feeds the compaction's quickselect the
// inputs that defeat naive pivots — sorted, reverse-sorted, all-equal and
// organ-pipe — at buffer sizes around the searcher's (2k for k 30 to 900)
// and checks it places the requested rank correctly within an n·log₂n
// comparison budget. A quickselect that went quadratic on one of them
// would spend ~n²/2: nearly 200 times the budget at n=5000.
func TestSelectNthComparisonBudget(t *testing.T) {
	shapes := map[string]func(i, n int) float32{
		"sorted":    func(i, n int) float32 { return float32(i) },
		"reverse":   func(i, n int) float32 { return float32(n - i) },
		"all-equal": func(i, n int) float32 { return 1 },
		"organ-pipe": func(i, n int) float32 {
			return float32(min(i, n-1-i))
		},
		"sawtooth": func(i, n int) float32 { return float32(i % 16) },
	}
	for name, dist := range shapes {
		for _, n := range []int{64, 200, 600, 1800, 5000} {
			for _, rank := range []int{0, n / 2, n/2 - 1, n - 2, n - 1} {
				for _, sameID := range []bool{false, true} {
					items := make([]Item, n)
					for i := range items {
						items[i] = Item{ID: uint64(i), Dist: dist(i, n)}
						if sameID {
							items[i].ID = 7 // fully identical items when distances are equal
						}
					}
					want := sortOracle(items, n)[rank]
					cmps := selectNth(items, rank)
					label := fmt.Sprintf("%s n=%d rank=%d sameID=%v", name, n, rank, sameID)
					if items[rank] != want {
						t.Fatalf("%s: items[rank] = %v, want %v", label, items[rank], want)
					}
					for i, it := range items {
						if (i < rank && itemLess(want, it)) || (i > rank && itemLess(it, want)) {
							t.Fatalf("%s: item %d (%v) on the wrong side of %v", label, i, it, want)
						}
					}
					if budget := n * bits.Len(uint(n)); cmps > budget {
						t.Fatalf("%s: %d comparisons, budget n·log₂n = %d", label, cmps, budget)
					}
				}
			}
		}
	}
}
