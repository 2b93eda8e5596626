package main

import (
	"fmt"
	"math/rand"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/imagestore"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

// spec is one named workload.
type spec struct {
	name string
	// pool is the number of distinct query images; zipfS > 1 skews picks
	// over it (rank 0 hottest), otherwise picks are uniform.
	pool  int
	zipfS float64
	// scoped queries search only their product's category; pricedEvery
	// > 0 also gives every pricedEvery-th scoped query a price band around
	// its product's price.
	scoped      bool
	pricedEvery int
	// rate is the open-loop query rate, about a quarter of the workload's
	// closed-loop capacity on a 2-vCPU host: at half, the open loop queues.
	rate float64
	// concurrent runs the update stream beside the queries; otherwise it
	// runs after them, in the quiet cluster.
	concurrent bool
}

var specs = []spec{
	{name: "uniform_cold", pool: 8192, rate: 100},
	{name: "zipf_hot", pool: 8192, zipfS: 1.2, rate: 450},
	{name: "rt_mixed", pool: 8192, scoped: true, pricedEvery: 4, rate: 80, concurrent: true},
}

const (
	topK = 10
	// picks is the length of each pre-drawn query-index sequence; a phase
	// that outruns it wraps around.
	picks = 1 << 18
	// traceSamples is how many fresh queries the traced run replays at
	// every tier; applySample how many events it applies to a private
	// shard copy and publishes to a private queue.
	traceSamples = 256
	applySample  = 2000
	// Every workload streams Table 1-mix updates at updateRate product
	// events per second, then drains drainBursts bursts of burstEvents
	// events to every replica (e2e.update_drain_ups is the median of
	// their rates) and runs reindexes full reindexes (reindex_s is the
	// median of their times). At 400 events/s the stream took over a
	// third of rt_mixed's capacity (about 290 queries/s against about 460
	// without it), and a stream paced by the wall clock takes a larger
	// share whenever the shared host slows, so it amplified the host's
	// swings.
	updateRate  = 200.0
	drainBursts = 5
	burstEvents = 20000
	reindexes   = 3
)

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// query is one pre-generated image query and what a correct page for it
// looks like.
type query struct {
	req     core.QueryRequest
	product uint64
}

// inputs holds everything a run sends, generated from the seed before any
// load starts: the catalog's RNG feeds both query photos and fresh
// products, so generating them during load would make the inputs depend
// on timing.
type inputs struct {
	pool   []query
	closed []int // pool indices, in send order, for the closed loop
	open   []int // pool indices for the open loop
	// stream is the timed update stream, bursts the drained bursts, apply
	// the events the traced run replays on a private shard and queue.
	stream, apply []*msg.ProductUpdate
	bursts        [][]*msg.ProductUpdate
	// replay holds traceSamples fresh query photos, never part of the
	// pool, that a traced run replays at every tier.
	replay []query
}

func makeInputs(sp spec, cat *catalog.Catalog, images *imagestore.Store, seed int64, streamEvents int, trace bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &inputs{}
	mk := func(i int, p *catalog.Product) query {
		q := query{product: p.ID, req: core.QueryRequest{
			ImageBlob:     cat.QueryImage(p).Encode(),
			TopK:          topK,
			CategoryScope: -1,
		}}
		if sp.scoped {
			q.req.CategoryScope = int32(p.Category)
			if sp.pricedEvery > 0 && i%sp.pricedEvery == 0 {
				q.req.MinPriceCents = p.PriceCents / 2
				q.req.MaxPriceCents = p.PriceCents * 2
			}
		}
		return q
	}
	in.pool = make([]query, sp.pool)
	for i := range in.pool {
		in.pool[i] = mk(i, &cat.Products[rng.Intn(len(cat.Products))])
	}
	if trace {
		in.replay = make([]query, traceSamples)
		for i := range in.replay {
			in.replay[i] = mk(i, &cat.Products[rng.Intn(len(cat.Products))])
		}
	}
	draw := func(r *rand.Rand) []int {
		out := make([]int, picks)
		var z *rand.Zipf
		if sp.zipfS > 1 {
			z = rand.NewZipf(r, sp.zipfS, 1, uint64(sp.pool-1))
		}
		for i := range out {
			if z != nil {
				out[i] = int(z.Uint64())
			} else {
				out[i] = r.Intn(sp.pool)
			}
		}
		return out
	}
	in.closed = draw(rand.New(rand.NewSource(seed + 1)))
	in.open = draw(rand.New(rand.NewSource(seed + 2)))

	// The generator uploads fresh products' photos as it mints them.
	gen := workload.NewMix(workload.MixConfig{Seed: seed + 3}, cat, images)
	var seq uint64 = 1 << 40 // above every bootstrap event's Seq
	events := func(n int) ([]*msg.ProductUpdate, error) {
		out := make([]*msg.ProductUpdate, n)
		for i := range out {
			u, _, _, err := gen.Next()
			if err != nil {
				return nil, err
			}
			seq++
			u.Seq = seq
			out[i] = u
		}
		return out, nil
	}
	var err error
	if in.stream, err = events(streamEvents); err != nil {
		return nil, err
	}
	in.bursts = make([][]*msg.ProductUpdate, drainBursts)
	for i := range in.bursts {
		if in.bursts[i], err = events(burstEvents); err != nil {
			return nil, err
		}
	}
	if trace {
		if in.apply, err = events(applySample); err != nil {
			return nil, err
		}
	}
	return in, nil
}
