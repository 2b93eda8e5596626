package main

import (
	"strings"
	"testing"

	"jdvs/internal/core"
)

func TestPercentiles(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, beyond := pct(sorted, 50); v != 500 || beyond != 500 {
		t.Errorf("p50 = %v (%d beyond), want 500 (500 beyond)", v, beyond)
	}
	if v, beyond := pct(sorted, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 = %v (%d beyond), want 990 (10 beyond)", v, beyond)
	}
	// 99.9 leaves one sample beyond, so the tail falls back to p99.
	if v, p, beyond := tail(sorted); v != 990 || p != 99 || beyond != 10 {
		t.Errorf("tail = p%v %v (%d beyond), want p99 990 (10 beyond)", p, v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestGate(t *testing.T) {
	q := &query{product: 7, req: core.QueryRequest{TopK: 2, CategoryScope: 3, MinPriceCents: 100, MaxPriceCents: 200}}
	hit := func(product uint64, category uint16, price uint32) core.Hit {
		return core.Hit{ProductID: product, Category: category, PriceCents: price}
	}
	for _, tc := range []struct {
		hits []core.Hit
		want string
	}{
		{[]core.Hit{hit(7, 3, 150), hit(8, 3, 100)}, ""},
		{[]core.Hit{hit(7, 3, 150), hit(8, 3, 150), hit(9, 3, 150)}, "hits for TopK"},
		{[]core.Hit{hit(7, 3, 150), hit(7, 3, 160)}, "repeated"},
		{[]core.Hit{hit(7, 4, 150)}, "category"},
		{[]core.Hit{hit(7, 3, 201)}, "outside"},
	} {
		got := gate(q, &core.SearchResponse{Hits: tc.hits})
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("gate(%v) = %q, want %q", tc.hits, got, tc.want)
		}
	}
}
