package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/cache"
	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/frontend"
	"jdvs/internal/search/searcher"
)

// The reference cluster every workload runs on.
const (
	partitions  = 4
	replicas    = 2
	numBrokers  = 2
	numBlenders = 2
	products    = 50_000
	featureSeed = 42 // jdvsd's -feature-seed default
	// catalogSeed fixes the catalog: it is part of the reference cluster,
	// while the workload seed drives the queries and updates sent to it.
	catalogSeed = 1
	// Both caches hold far fewer entries than a workload's query pool.
	featureCacheSize = 1024
	resultCacheSize  = 1024
)

// shardConfig is the searchers' index configuration: 4-bit fast-scan PQ,
// everything else at its defaults.
var shardConfig = index.Config{
	Dim:          cnn.DefaultDim,
	NLists:       64,
	PQSubvectors: -1,
	PQBits:       4,
}

// rig is the in-process reference cluster, wired tier by tier from the
// public constructors so the benchmark can reach every tier directly.
type rig struct {
	queue     *mq.Queue
	images    *imagestore.Store
	extractor *cnn.Extractor
	resolver  *indexer.Resolver
	cat       *catalog.Catalog
	seq       uint64

	searchers [][]*searcher.Searcher // [partition][replica]
	brokers   []*broker.Broker
	blenders  []*blender.Blender
	front     *frontend.Frontend

	// onApplied, when set, observes every update applied on any replica.
	onApplied atomic.Pointer[searcher.AppliedFunc]

	// fullBuild is how long the bootstrap FullIndexer.Build took.
	fullBuild time.Duration
}

// startRig generates the catalog, feeds it through the update queue, runs
// the full index build and starts every tier.
func startRig() (*rig, error) {
	r := &rig{
		queue:     mq.New(),
		images:    imagestore.New(),
		extractor: cnn.New(cnn.Config{Dim: shardConfig.Dim, Seed: featureSeed}),
	}
	r.resolver = &indexer.Resolver{
		DB:        featuredb.New(),
		Images:    r.images,
		Extractor: r.extractor,
		Features:  cache.New[[]float32](featureCacheSize),
	}
	if err := r.queue.CreateTopic(indexer.UpdatesTopic, partitions); err != nil {
		return nil, err
	}
	cat, err := catalog.Generate(catalog.Config{Products: products, Seed: catalogSeed}, r.images)
	if err != nil {
		return nil, err
	}
	r.cat = cat
	for i := range cat.Products {
		p := &cat.Products[i]
		r.seq++
		u := &msg.ProductUpdate{
			Type: msg.TypeAddProduct, ProductID: p.ID, Category: p.Category,
			Sales: p.Sales, Praise: p.Praise, PriceCents: p.PriceCents,
			ImageURLs: append([]string(nil), p.ImageURLs...), Seq: r.seq,
		}
		if _, err := indexer.RouteUpdate(r.queue, u); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	shards, err := r.build()
	if err != nil {
		return nil, err
	}
	r.fullBuild = time.Since(t0)
	if err := r.startTiers(shards); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// build runs a full index build over the whole update log.
func (r *rig) build() ([]*index.Shard, error) {
	full, err := indexer.NewFull(indexer.FullConfig{
		Partitions: partitions,
		Shard:      shardConfig,
		Seed:       featureSeed,
	}, r.resolver)
	if err != nil {
		return nil, err
	}
	shards, _, err := full.Build(r.queue)
	return shards, err
}

func (r *rig) startTiers(shards []*index.Shard) error {
	applied := func(u *msg.ProductUpdate, kind string, reused bool, lat time.Duration) {
		if f := r.onApplied.Load(); f != nil {
			(*f)(u, kind, reused, lat)
		}
	}
	r.searchers = make([][]*searcher.Searcher, partitions)
	for p := 0; p < partitions; p++ {
		start, err := r.queue.Len(indexer.UpdatesTopic, p)
		if err != nil {
			return err
		}
		for rep := 0; rep < replicas; rep++ {
			shard := shards[p]
			if rep > 0 {
				if shard, err = cloneShard(shards[p]); err != nil {
					return err
				}
			}
			s, err := searcher.New(searcher.Config{
				Partition:   core.PartitionID(p),
				Shard:       shard,
				Resolver:    r.resolver,
				Queue:       r.queue,
				StartOffset: start,
				OnApplied:   applied,
			})
			if err != nil {
				return fmt.Errorf("searcher p%d r%d: %w", p, rep, err)
			}
			r.searchers[p] = append(r.searchers[p], s)
		}
	}
	// Broker j serves the partitions p with p mod numBrokers == j.
	var brokerAddrs []string
	for j := 0; j < numBrokers; j++ {
		var groups [][]string
		for p := j; p < partitions; p += numBrokers {
			var addrs []string
			for _, s := range r.searchers[p] {
				addrs = append(addrs, s.Addr())
			}
			groups = append(groups, addrs)
		}
		b, err := broker.New(broker.Config{PartitionReplicas: groups, ResultCacheSize: resultCacheSize})
		if err != nil {
			return fmt.Errorf("broker %d: %w", j, err)
		}
		r.brokers = append(r.brokers, b)
		brokerAddrs = append(brokerAddrs, b.Addr())
	}
	var blenderAddrs []string
	for i := 0; i < numBlenders; i++ {
		b, err := blender.New(blender.Config{
			Brokers:          brokerAddrs,
			Extractor:        r.extractor,
			FeatureCacheSize: featureCacheSize,
		})
		if err != nil {
			return fmt.Errorf("blender %d: %w", i, err)
		}
		r.blenders = append(r.blenders, b)
		blenderAddrs = append(blenderAddrs, b.Addr())
	}
	f, err := frontend.New(frontend.Config{Blenders: blenderAddrs})
	if err != nil {
		return fmt.Errorf("frontend: %w", err)
	}
	r.front = f
	return nil
}

// brokerPartitions lists the partitions broker j serves.
func brokerPartitions(j int) []int {
	var ps []int
	for p := j; p < partitions; p += numBrokers {
		ps = append(ps, p)
	}
	return ps
}

// cloneShard deep-copies a shard through its snapshot codec.
func cloneShard(s *index.Shard) (*index.Shard, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	dup, err := index.New(s.Config())
	if err != nil {
		return nil, err
	}
	if err := dup.LoadSnapshot(&buf); err != nil {
		return nil, err
	}
	return dup, nil
}

// publish routes one update into the queue and returns, per partition, the
// offset the searchers must reach for the update to be fully applied
// (-1 for partitions it does not touch).
func (r *rig) publish(u *msg.ProductUpdate) ([partitions]int64, error) {
	var need [partitions]int64
	for p := range need {
		need[p] = -1
	}
	if _, err := indexer.RouteUpdate(r.queue, u); err != nil {
		return need, err
	}
	for _, url := range u.ImageURLs {
		p := int(mq.PartitionFor(core.NormalizeURL(url), partitions))
		n, err := r.queue.Len(indexer.UpdatesTopic, p)
		if err != nil {
			return need, err
		}
		need[p] = n
	}
	return need, nil
}

// pushAll streams every partition's shard to every replica of it through
// the chunked snapshot path, concurrently, and waits for all swaps.
func (r *rig) pushAll(shards []*index.Shard) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, partitions*replicas)
	for p := range r.searchers {
		for _, s := range r.searchers[p] {
			wg.Add(1)
			go func(addr string, shard *index.Shard) {
				defer wg.Done()
				if err := searcher.PushSnapshot(ctx, addr, shard); err != nil {
					errs <- err
				}
			}(s.Addr(), shards[p])
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// servingShards returns replica 0's live shard of every partition.
func (r *rig) servingShards() []*index.Shard {
	out := make([]*index.Shard, partitions)
	for p := range out {
		out[p] = r.searchers[p][0].Shard()
	}
	return out
}

// close stops every tier in dependency order and waits for each to end.
func (r *rig) close() {
	if r.front != nil {
		r.front.Close()
	}
	for _, b := range r.blenders {
		b.Close()
	}
	for _, b := range r.brokers {
		b.Close()
	}
	r.queue.Close()
	for _, g := range r.searchers {
		for _, s := range g {
			s.Close()
		}
	}
}
