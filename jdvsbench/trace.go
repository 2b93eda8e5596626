package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/imaging"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/ranking"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// span is one timed call into a layer, made by the benchmark. Spans of one
// replayed query share Trace; Parent is the span that caused it (0 for a
// root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(trace, parent int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{trace, id, parent, name, int64(start.Sub(t.base)), int64(end.Sub(t.base))})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// blenderOversample is the blender's default TopK multiplier for its
// fan-out; defaultNProbe the shards' default probe width, spelled out so a
// replayed fan-out request differs in bytes, but not in work, from the one
// the blender sent and the broker cached.
const (
	blenderOversample = 3
	defaultNProbe     = 8
)

// replayTimes holds the per-tier timings of the traced replays.
type replayTimes struct {
	decode, detect, extract    []float64 // µs, in process
	rank                       []float64
	blenderSelf, brokerSelf    []float64
	searcherCall, searcherSelf []float64
	index                      []float64
	scanned, probed            []float64 // per query, all partitions
	cacheTainted               int       // replays a cache answered
}

// replay times calls into each tier's public API for fresh queries the
// caches have never seen. Each sample's photo goes to a blender directly;
// the same photo is then decoded, detected and embedded in process, its
// fan-out request (with the probe width spelled out, so the brokers' result
// cache misses) sent to each broker, to each partition's serving searcher,
// and run in process on each serving shard; the brokers' pages are ranked in
// process. Cache counters are read around every call that a cache could
// answer; a sample some cache answered is counted and left out.
func replay(r *rig, sr *statsReader, tr *tracer, samples []query) (*replayTimes, []string, error) {
	rt := &replayTimes{}
	var violations []string
	// The stats reader's connections double as the replay's: one per tier.
	blenders, brokers := sr.blenders, sr.brokers
	searchers := make([]*rpc.Client, partitions)
	for p := range searchers {
		searchers[p] = sr.searchers[p][0]
	}
	ranker := ranking.New(ranking.DefaultWeights())
	ctx := context.Background()
	call := func(c *rpc.Client, method uint16, payload []byte) ([]byte, time.Time, time.Time, error) {
		t0 := time.Now()
		raw, err := c.Call(ctx, method, payload)
		return raw, t0, time.Now(), err
	}
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Microsecond) }
	cacheMisses := func() (fc, rc int64, err error) {
		ts, err := sr.read()
		if err != nil {
			return 0, 0, err
		}
		c := ts.counters()
		return c.fcMisses, c.rcMisses, nil
	}

	for i := range samples {
		x := &samples[i]
		trace := int64(i + 1)
		fc0, rc0, err := cacheMisses()
		if err != nil {
			return nil, nil, err
		}

		// Blender, whole call.
		raw, b0, b1, err := call(blenders[i%len(blenders)], search.MethodQuery, core.EncodeQueryRequest(&x.req))
		if err != nil {
			return nil, nil, fmt.Errorf("replay blender: %w", err)
		}
		root := tr.add(trace, 0, "blender.query", b0, b1)
		if v := checkPage(x, raw); v != "" {
			violations = append(violations, v)
		}
		fc1, rc1, err := cacheMisses()
		if err != nil {
			return nil, nil, err
		}

		// The blender's head, in process on the same photo.
		t0 := time.Now()
		img, err := imaging.Decode(x.req.ImageBlob)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		if _, err := cnn.Detect(img); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		feature, err := r.extractor.Extract(img)
		t3 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		tr.add(trace, root, "blender.decode", t0, t1)
		tr.add(trace, root, "blender.detect", t1, t2)
		tr.add(trace, root, "blender.extract", t2, t3)
		decode, detect, extract := us(t0, t1), us(t1, t2), us(t2, t3)

		fan := &core.SearchRequest{
			Feature:       feature,
			TopK:          topK * blenderOversample,
			NProbe:        defaultNProbe,
			Category:      x.req.CategoryScope,
			MinPriceCents: x.req.MinPriceCents,
			MaxPriceCents: x.req.MaxPriceCents,
			MinSales:      x.req.MinSales,
		}
		payload := core.EncodeSearchRequest(fan)

		// Brokers, then each partition's serving searcher, then the shard
		// in process, all on the same request bytes.
		brokerUS := make([]float64, len(brokers))
		var hits []core.Hit
		for b, c := range brokers {
			raw, s0, s1, err := call(c, search.MethodSearch, payload)
			if err != nil {
				return nil, nil, fmt.Errorf("replay broker: %w", err)
			}
			tr.add(trace, root, "broker.search", s0, s1)
			resp, err := core.DecodeSearchResponse(raw)
			if err != nil {
				return nil, nil, err
			}
			hits = append(hits, resp.Hits...)
			brokerUS[b] = us(s0, s1)
		}
		_, rc2, err := cacheMisses()
		if err != nil {
			return nil, nil, err
		}
		searcherUS := make([]float64, partitions)
		indexUS := make([]float64, partitions)
		var scanned, probed int
		for p, c := range searchers {
			_, s0, s1, err := call(c, search.MethodSearch, payload)
			if err != nil {
				return nil, nil, fmt.Errorf("replay searcher: %w", err)
			}
			tr.add(trace, root, "searcher.search", s0, s1)
			searcherUS[p] = us(s0, s1)
			s0 = time.Now()
			resp, err := r.searchers[p][0].Shard().Search(fan)
			s1 = time.Now()
			if err != nil {
				return nil, nil, err
			}
			tr.add(trace, root, "index.search", s0, s1)
			indexUS[p] = us(s0, s1)
			scanned += resp.Scanned
			probed += resp.Probed
		}
		k0 := time.Now()
		ranker.Rank(ranking.Filter(hits, fan.AdmitsHit), topK)
		k1 := time.Now()
		tr.add(trace, root, "blender.rank", k0, k1)
		rank := us(k0, k1)

		// Each call above must have missed its caches: one feature-cache
		// miss for the blender call, one result-cache miss per broker
		// reached, by the blender and by the replay.
		if fc1-fc0 != 1 || rc1-rc0 != numBrokers || rc2-rc1 != numBrokers {
			rt.cacheTainted++
			continue
		}
		slowestBroker := 0.0
		for b := range brokers {
			slowestBroker = max(slowestBroker, brokerUS[b])
			slowest := 0.0
			for _, p := range brokerPartitions(b) {
				slowest = max(slowest, searcherUS[p])
			}
			rt.brokerSelf = append(rt.brokerSelf, brokerUS[b]-slowest)
		}
		for p := range searchers {
			rt.searcherCall = append(rt.searcherCall, searcherUS[p])
			rt.searcherSelf = append(rt.searcherSelf, searcherUS[p]-indexUS[p])
			rt.index = append(rt.index, indexUS[p])
		}
		rt.decode = append(rt.decode, decode)
		rt.detect = append(rt.detect, detect)
		rt.extract = append(rt.extract, extract)
		rt.rank = append(rt.rank, rank)
		rt.blenderSelf = append(rt.blenderSelf, us(b0, b1)-decode-detect-extract-slowestBroker-rank)
		rt.scanned = append(rt.scanned, float64(scanned))
		rt.probed = append(rt.probed, float64(probed))
	}
	return rt, violations, nil
}

// checkPage decodes a raw page and runs the correctness gate on it.
func checkPage(q *query, raw []byte) string {
	resp, err := core.DecodeSearchResponse(raw)
	if err != nil {
		return "page does not decode: " + err.Error()
	}
	return gate(q, resp)
}

// pingUS times n MethodPing round trips on c and returns them in µs.
func pingUS(c *rpc.Client, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if _, err := c.Call(context.Background(), search.MethodPing, nil); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return out, nil
}

// hopUS times the frontend's own share of a call, n times, in µs. An
// undecodable search request goes through the frontend to a blender, which
// refuses it before any work; the same bytes sent to the blender directly
// take the same path minus the frontend, and touch no cache or counter.
func hopUS(front, blender *rpc.Client, n int) ([]float64, error) {
	bad := []byte{0xff}
	refused := func(c *rpc.Client) (time.Duration, error) {
		t0 := time.Now()
		_, err := c.Call(context.Background(), search.MethodSearch, bad)
		var re *rpc.RemoteError
		if !errors.As(err, &re) {
			return 0, fmt.Errorf("undecodable request was not refused: %v", err)
		}
		return time.Since(t0), nil
	}
	out := make([]float64, n)
	for i := range out {
		viaFront, err := refused(front)
		if err != nil {
			return nil, err
		}
		direct, err := refused(blender)
		if err != nil {
			return nil, err
		}
		out[i] = float64(viaFront-direct) / float64(time.Microsecond)
	}
	return out, nil
}

// writeSnapshots times serialising every serving shard.
func writeSnapshots(r *rig) (time.Duration, error) {
	t0 := time.Now()
	for _, s := range r.servingShards() {
		if err := s.WriteSnapshot(io.Discard); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// applyUS replays events with indexer.Apply on a private copy of
// partition 0's serving shard, one per-image message at a time as the
// real-time loop receives them, and returns each apply's time in µs.
func applyUS(r *rig, events []*msg.ProductUpdate) ([]float64, error) {
	shard, err := cloneShard(r.searchers[0][0].Shard())
	if err != nil {
		return nil, err
	}
	defer shard.Close()
	var out []float64
	for _, u := range events {
		for _, url := range u.ImageURLs {
			url = core.NormalizeURL(url)
			if mq.PartitionFor(url, partitions) != 0 {
				continue
			}
			per := *u
			per.ImageURLs = []string{url}
			t0 := time.Now()
			if _, _, err := indexer.Apply(shard, r.resolver, &per); err != nil {
				return nil, err
			}
			out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return out, nil
}

// publishUS times indexer.RouteUpdate of each event into a private queue.
func publishUS(events []*msg.ProductUpdate) ([]float64, error) {
	q := mq.New()
	defer q.Close()
	if err := q.CreateTopic(indexer.UpdatesTopic, partitions); err != nil {
		return nil, err
	}
	out := make([]float64, len(events))
	for i, u := range events {
		t0 := time.Now()
		if _, err := indexer.RouteUpdate(q, u); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return out, nil
}
