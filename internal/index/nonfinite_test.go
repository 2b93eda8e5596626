package index

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"jdvs/internal/core"
)

// nonFiniteCase is a feature with one non-finite coordinate.
type nonFiniteCase struct {
	name  string
	coord int
	feat  []float32
}

// nonFiniteCases is every non-finite value at the first, a middle and the
// last coordinate of a feature copied from base.
func nonFiniteCases(base []float32) []nonFiniteCase {
	var cases []nonFiniteCase
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, c := range []int{0, len(base) / 2, len(base) - 1} {
			f := append([]float32(nil), base...)
			f[c] = v
			cases = append(cases, nonFiniteCase{fmt.Sprintf("%v@%d", v, c), c, f})
		}
	}
	return cases
}

// requireNonFinite fails unless err is a *NonFiniteError naming coord.
func requireNonFinite(t *testing.T, label string, err error, coord int) {
	t.Helper()
	var nf *NonFiniteError
	if !errors.As(err, &nf) {
		t.Fatalf("%s: err = %v, want a *NonFiniteError", label, err)
	}
	if nf.Coord != coord {
		t.Fatalf("%s: error names coordinate %d, want %d", label, nf.Coord, coord)
	}
}

// TestSearchRejectsNonFiniteQuery: a NaN or ±Inf query coordinate is an
// error on every scan path — exact, 8-bit and 4-bit — not a page of NaN or
// +Inf distances, through Search and through SearchBatch, where only the
// bad member errors and its neighbours get exactly their Search pages.
func TestSearchRejectsNonFiniteQuery(t *testing.T) {
	exact, quant4, feats := buildPQBitsPair(t, 1000, 32, 16, 8, 4)
	_, quant8, _ := buildPQBitsPair(t, 1000, 32, 16, 8, 8)
	for _, sh := range []struct {
		name string
		s    *Shard
	}{{"exact", exact}, {"bits=8", quant8}, {"bits=4", quant4}} {
		for _, c := range nonFiniteCases(feats[3]) {
			label := sh.name + "/" + c.name
			bad := &core.SearchRequest{Feature: c.feat, TopK: 30, NProbe: 8, Category: -1}
			resp, err := sh.s.Search(bad)
			requireNonFinite(t, label+"/Search", err, c.coord)
			if resp != nil {
				t.Fatalf("%s/Search: returned a page beside the error", label)
			}

			reqs := []*core.SearchRequest{
				{Feature: feats[1], TopK: 30, NProbe: 8, Category: -1},
				bad,
				{Feature: feats[2], TopK: 10, NProbe: 8, Category: -1},
				bad, // a duplicate rides the bad leader and errors with it
			}
			resps, errs := sh.s.SearchBatch(reqs)
			for _, i := range []int{1, 3} {
				requireNonFinite(t, fmt.Sprintf("%s/SearchBatch[%d]", label, i), errs[i], c.coord)
				if resps[i] != nil {
					t.Fatalf("%s/SearchBatch[%d]: returned a page beside the error", label, i)
				}
			}
			for _, i := range []int{0, 2} {
				if errs[i] != nil {
					t.Fatalf("%s/SearchBatch[%d]: good member errored: %v", label, i, errs[i])
				}
				want, err := sh.s.Search(reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				requireSameResponse(t, label+"/SearchBatch", resps[i], want)
			}
		}
	}
}

// TestInsertRejectsNonFiniteFeature: a fresh insert and a re-listing
// carrying a non-finite feature both fail without committing anything —
// the shard's image count is unchanged and the re-listed image keeps
// serving its old row.
func TestInsertRejectsNonFiniteFeature(t *testing.T) {
	_, quant, feats := buildPQBitsPair(t, 1000, 32, 16, 8, 4)
	images := quant.Stats().Images
	const relisted = 5
	relistURL := fmt.Sprintf("jfs://pq4/%d.jpg", relisted)
	for _, c := range nonFiniteCases(feats[0]) {
		_, _, err := quant.Insert(core.Attrs{ProductID: 99_999, URL: "jfs://nonfinite/new.jpg"}, c.feat)
		requireNonFinite(t, c.name+"/fresh", err, c.coord)
		_, _, err = quant.Insert(core.Attrs{ProductID: relisted + 1, URL: relistURL}, c.feat)
		requireNonFinite(t, c.name+"/relist", err, c.coord)
	}
	if got := quant.Stats().Images; got != images {
		t.Fatalf("rejected inserts committed rows: %d images, want %d", got, images)
	}
	resp, err := quant.Search(&core.SearchRequest{Feature: feats[relisted], TopK: 1, NProbe: 16, Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 1 || resp.Hits[0].URL != relistURL || resp.Hits[0].Dist != 0 {
		t.Fatalf("re-listed image lost its row: %+v", resp.Hits)
	}
}
