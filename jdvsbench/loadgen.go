package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/search/client"
)

// clients is the load generator's connection count: one per vCPU of the
// reference host, as in the paper's single client machine (§3.2).
const clients = 2

// queryTimeout bounds one query; a failed query counts as taking this long,
// so it misses every latency limit.
const queryTimeout = 10 * time.Second

// outcome is what a phase of query load observed.
type outcome struct {
	lat       []time.Duration // per query; failures count as queryTimeout
	late      []time.Duration // open loop only: send time minus due time
	attempted int
	failed    int
	answered  int
	// self counts, per distinct query photo answered, how many of its
	// pages held its own product and how many pages it got.
	self       map[*query][2]int
	violations []string
	elapsed    time.Duration
}

func (o *outcome) merge(x *outcome) {
	o.lat = append(o.lat, x.lat...)
	o.late = append(o.late, x.late...)
	o.attempted += x.attempted
	o.failed += x.failed
	o.answered += x.answered
	for q, c := range x.self {
		if o.self == nil {
			o.self = make(map[*query][2]int)
		}
		o.self[q] = [2]int{o.self[q][0] + c[0], o.self[q][1] + c[1]}
	}
	o.violations = append(o.violations, x.violations...)
	o.elapsed += x.elapsed
}

// gate checks one answered page: it must have decoded, hold at most TopK
// hits, name each product once and keep every hit inside a scoped query's
// category and price band. It returns a violation message or "".
func gate(q *query, resp *core.SearchResponse) string {
	if len(resp.Hits) > q.req.TopK {
		return fmt.Sprintf("%d hits for TopK %d", len(resp.Hits), q.req.TopK)
	}
	seen := make(map[uint64]bool, len(resp.Hits))
	for i := range resp.Hits {
		h := &resp.Hits[i]
		if seen[h.ProductID] {
			return fmt.Sprintf("product %d repeated on one page", h.ProductID)
		}
		seen[h.ProductID] = true
		if q.req.CategoryScope >= 0 && int32(h.Category) != q.req.CategoryScope {
			return fmt.Sprintf("hit in category %d for a query scoped to %d", h.Category, q.req.CategoryScope)
		}
		if h.PriceCents < q.req.MinPriceCents || (q.req.MaxPriceCents > 0 && h.PriceCents > q.req.MaxPriceCents) {
			return fmt.Sprintf("hit priced %d outside [%d, %d]", h.PriceCents, q.req.MinPriceCents, q.req.MaxPriceCents)
		}
	}
	return ""
}

// recorder accumulates per-query results from concurrent senders.
type recorder struct {
	mu sync.Mutex
	o  outcome
}

func (r *recorder) record(q *query, resp *core.SearchResponse, err error, lat time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.attempted++
	if err != nil {
		r.o.failed++
		r.o.lat = append(r.o.lat, queryTimeout)
		if errors.Is(err, core.ErrCodec) {
			r.o.violations = append(r.o.violations, "page does not decode: "+err.Error())
		}
		return
	}
	r.o.answered++
	r.o.lat = append(r.o.lat, lat)
	if v := gate(q, resp); v != "" {
		r.o.violations = append(r.o.violations, v)
	}
	hit := 0
	for i := range resp.Hits {
		if resp.Hits[i].ProductID == q.product {
			hit = 1
			break
		}
	}
	if r.o.self == nil {
		r.o.self = make(map[*query][2]int)
	}
	r.o.self[q] = [2]int{r.o.self[q][0] + hit, r.o.self[q][1] + 1}
}

// selfHitFrac is the share of pages that hold the queried product, with
// every distinct query photo weighted equally, so a skewed workload's few
// hot photos do not decide it alone.
func (o *outcome) selfHitFrac() float64 {
	sum := 0.0
	for _, c := range o.self {
		sum += float64(c[0]) / float64(c[1])
	}
	return sum / float64(max(1, len(o.self)))
}

// closedLoop runs clients senders, each issuing its next query as soon as
// the previous one returns, for d. Queries are taken from picks in order.
func closedLoop(cl *client.Client, pool []query, picks []int, d time.Duration) *outcome {
	var rec recorder
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := &pool[picks[int(next.Add(1)-1)%len(picks)]]
				t0 := time.Now()
				resp, err := send(cl, q)
				rec.record(q, resp, err, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	rec.o.elapsed = time.Since(start)
	return &rec.o
}

// openLoop sends queries on a fixed schedule of rate per second for d,
// whether or not earlier ones have returned, and times each from its due
// time, so a stall also charges the queries it delays. A non-nil tr gets a
// span per query.
func openLoop(cl *client.Client, pool []query, picks []int, rate float64, d time.Duration, tr *tracer) *outcome {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	errs := make([]error, n)
	resps := make([]*core.SearchResponse, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			resps[i], errs[i] = send(cl, &pool[picks[i%len(picks)]])
			end := time.Now()
			lat[i] = end.Sub(due)
			if tr != nil {
				tr.add(int64(-1-i), 0, "frontend.query", due, end)
			}
		}(i, due)
	}
	wg.Wait()
	var rec recorder
	for i := 0; i < n; i++ {
		rec.record(&pool[picks[i%len(picks)]], resps[i], errs[i], lat[i])
	}
	rec.o.late = late
	rec.o.elapsed = time.Since(start)
	return &rec.o
}

func send(cl *client.Client, q *query) (*core.SearchResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	return cl.Query(ctx, &q.req)
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake a mostly idle process up to a millisecond late, more than a
// cache-hot query takes; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
