package main

import (
	"fmt"
	"sync"
	"time"

	"jdvs/internal/msg"
	"jdvs/internal/rpc"
	"jdvs/internal/search/searcher"
)

// visibility tracks published updates until every replica of every
// partition they touch has applied them.
type visibility struct {
	mu      sync.Mutex
	pending map[uint64]*pendingUpdate // by event Seq
	lat     []time.Duration
}

type pendingUpdate struct {
	published time.Time
	left      int // (image, replica) applications still missing
}

func newVisibility() *visibility {
	return &visibility{pending: make(map[uint64]*pendingUpdate)}
}

// expect registers u before it is published.
func (v *visibility) expect(u *msg.ProductUpdate, at time.Time) {
	v.mu.Lock()
	v.pending[u.Seq] = &pendingUpdate{published: at, left: len(u.ImageURLs) * replicas}
	v.mu.Unlock()
}

// applied is the searchers' OnApplied hook.
func (v *visibility) applied(u *msg.ProductUpdate, _ string, _ bool, _ time.Duration) {
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pending[u.Seq]
	if p == nil {
		return
	}
	if p.left--; p.left == 0 {
		v.lat = append(v.lat, now.Sub(p.published))
		delete(v.pending, u.Seq)
	}
}

// wait blocks until no update is pending or the timeout passes, and
// returns how many are still pending.
func (v *visibility) wait(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		v.mu.Lock()
		n := len(v.pending)
		v.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stream publishes events at a fixed rate until stop is closed or the
// events run out.
type stream struct {
	stop chan struct{}
	done chan struct{}
	err  error
}

func startStream(r *rig, events []*msg.ProductUpdate, rate float64, vis *visibility) *stream {
	s := &stream{stop: make(chan struct{}), done: make(chan struct{})}
	hook := searcher.AppliedFunc(vis.applied)
	r.onApplied.Store(&hook)
	go func() {
		defer close(s.done)
		interval := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		for i, u := range events {
			sleepUntil(start.Add(time.Duration(i) * interval))
			select {
			case <-s.stop:
				return
			default:
			}
			vis.expect(u, time.Now())
			if _, err := r.publish(u); err != nil {
				s.err = err
				return
			}
		}
		s.err = fmt.Errorf("update stream ran out after %d events", len(events))
	}()
	return s
}

func (s *stream) end() error {
	close(s.stop)
	<-s.done
	return s.err
}

// drain publishes the burst as fast as one producer can and polls every
// replica's applied-offset watermark over MethodStats until each covers
// the burst. It returns the per-image messages published and the time from
// the first publish until the last replica caught up.
func drain(r *rig, sr *statsReader, burst []*msg.ProductUpdate, timeout time.Duration) (int, time.Duration, error) {
	var need [partitions]int64
	msgs := 0
	start := time.Now()
	for _, u := range burst {
		n, err := r.publish(u)
		if err != nil {
			return 0, 0, err
		}
		for p := range need {
			need[p] = max(need[p], n[p])
		}
		msgs += len(u.ImageURLs)
	}
	// Poll only the replicas still behind, every 5ms, so the poller takes
	// little of the CPU the drain runs on.
	type replica struct {
		p int
		c *rpc.Client
	}
	var behind []replica
	for p, g := range sr.searchers {
		for _, c := range g {
			behind = append(behind, replica{p, c})
		}
	}
	for {
		still := behind[:0]
		for _, rep := range behind {
			var st searcher.Stats
			if err := readStats(rep.c, &st); err != nil {
				return 0, 0, err
			}
			if st.AppliedOffset < need[rep.p] {
				still = append(still, rep)
			}
		}
		behind = still
		if len(behind) == 0 {
			return msgs, time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return 0, 0, fmt.Errorf("burst of %d messages not drained to every replica within %v", msgs, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reindex runs the periodic full rebuild over the whole update log and
// pushes the fresh shards to every searcher, which swap them in.
func reindex(r *rig) (build, push time.Duration, err error) {
	t0 := time.Now()
	shards, err := r.build()
	if err != nil {
		return 0, 0, err
	}
	build = time.Since(t0)
	t1 := time.Now()
	err = r.pushAll(shards)
	return build, time.Since(t1), err
}
