// Command jdvsbench is the end-to-end and per-layer benchmark of the jdvs
// visual search system. It boots the reference cluster in process (4
// partitions × 2 replicas, 2 brokers, 2 blenders, 1 frontend over a 50,000
// product catalog), drives one named workload from a single load-generating
// process, checks every page it gets back, and prints its metrics; the last
// line of standard output is one JSON object.
//
//	jdvsbench --workload uniform_cold --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// replays fresh queries at every tier and prints the per-layer metrics.
// The exit code is non-zero when any page or update was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"jdvs/internal/search/client"
)

// setupRuns is how many times a run builds the cluster; setup_s and heap_mb
// are the medians, and the last cluster built serves the load.
const setupRuns = 3

// warmup is how long queries run, unmeasured, before timing starts: caches
// fill, connections open and the brokers' hedge windows fill.
const warmup = time.Second

// quietStream is how long a query-only workload streams updates into the
// cluster after its query load.
const quietStream = 1500 * time.Millisecond

// The timed load is cut into closed-then-open windows of windowLen each;
// closedShare is the share of a window spent in the closed loop.
const (
	windowLen   = time.Second
	closedShare = 0.5
)

// updateChunks is how many consecutive chunks the update visibility
// samples are cut into; e2e.update_visible_p50_ms is the median of their
// medians.
const updateChunks = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: uniform_cold, zipf_hot or rt_mixed")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 16, "seconds of timed query load")
	traced := flag.Int("trace", 0, "1 replays fresh queries at every tier and prints the per-layer metrics")
	flag.Parse()
	sp, err := specByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: jdvsbench --workload uniform_cold|zipf_hot|rt_mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A wedged run must still end, without a result, within 180s.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "jdvsbench: run exceeded 170s")
		os.Exit(3)
	})
	b := &bench{sp: sp, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jdvsbench:", err)
		os.Exit(1)
	}
	b.report(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	seconds time.Duration
	trace   bool

	r  *rig
	sr *statsReader
	in *inputs
	tr *tracer

	// nextClosed and nextOpen index the next unsent pick of each loop.
	nextClosed, nextOpen int

	builds     []float64 // full index build time of each set-up, in s
	metrics    map[string]metric
	notes      []string // human-readable lines printed before the result
	violations []string
	attempted  int
	failed     int
}

func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) run() (*result, error) {
	b.metrics = make(map[string]metric)
	b.tr = &tracer{base: time.Now()}

	// Set-up: catalog, bootstrap feed, full build, every tier.
	var setups, heaps []float64
	for i := 0; i < setupRuns; i++ {
		if b.r != nil {
			b.r.close()
			b.r = nil
		}
		runtime.GC()
		t0 := time.Now()
		r, err := startRig()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.builds = append(b.builds, r.fullBuild.Seconds())
		b.r = r
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/1e6)
	}
	defer b.r.close()
	b.note("setup_s: median of %d set-ups %v", setupRuns, roundAll(setups))

	// Every input, generated before any load.
	streamFor := quietStream
	if b.sp.concurrent {
		streamFor = warmup + b.seconds
		if b.trace {
			streamFor += b.seconds
		}
	}
	events := int(updateRate*streamFor.Seconds()*1.25) + 200
	in, err := makeInputs(b.sp, b.r.cat, b.r.images, b.seed, events, b.trace)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	b.in = in

	sr, err := newStatsReader(b.r)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	b.sr = sr
	initial, err := sr.read()
	if err != nil {
		return nil, err
	}
	cl, err := client.Dial(b.r.front.Addr(), clients)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	vis := newVisibility()
	var st *stream
	if b.sp.concurrent {
		st = startStream(b.r, in.stream, updateRate, vis)
	}
	stopStream := func() error {
		if st == nil {
			return nil
		}
		err := st.end()
		st = nil
		return err
	}
	defer stopStream()

	// Warm up on the second half of the closed-loop sequence, so the timed
	// windows start at its head.
	b.check(closedLoop(cl, in.pool, in.closed[len(in.closed)/2:], warmup))
	ws, err := b.windows(cl)
	if err != nil {
		return nil, err
	}
	closed, open, caps := ws.closed, ws.open, ws.caps

	// The closed loop, the paper's model of concurrent users (§3.2),
	// yields the capacity. It keeps the vCPUs near saturation, so its
	// latencies mostly restate the capacity and swing with every slowdown
	// of the shared host; they are reported unbounded, in traced runs.
	closed50, closed50s := medianPct(ws.closedLats, 50)
	closedLat := sortedFloats(asFloats(closed.lat, time.Millisecond))
	closedTail, tp, beyond := tail(closedLat)
	b.note("closed loop: %d clients, %d answered; median of window rates %.1f/s %v", clients, closed.answered, median(caps), roundAll(caps))
	b.note("  p50: median of window p50s %.3fms %v", closed50, roundAll(closed50s))
	b.note("  pooled: n=%d p%g=%.3fms (%d samples beyond)", len(closedLat), tp, closedTail, beyond)

	// End-to-end latency comes from the open loop at a fixed rate, timed
	// from each query's due time: the median of the windows' medians, so
	// a slow stretch of the host moves a few windows, not the run's figure.
	p50, p50s := medianPct(ws.openLats, 50)
	pooled := sortedFloats(asFloats(open.lat, time.Millisecond))
	openTail, otp, obeyond := tail(pooled)
	late := sortedFloats(asFloats(open.late, time.Millisecond))
	late50, _ := pct(late, 50)
	late99, _ := pct(late, 99)
	b.note("open loop at %.0f/s in %d windows of %d queries", b.sp.rate, len(ws.openLats), len(ws.openLats[0]))
	b.note("  p50: median of window p50s %.3fms %v", p50, roundAll(p50s))
	b.note("  pooled: n=%d p%g=%.3fms (%d samples beyond)", len(pooled), otp, openTail, obeyond)
	b.note("generator lateness: n=%d p50=%.3fms p99=%.3fms", len(late), late50, late99)
	if late50 > 0.1*p50 {
		b.note("WARNING: generator lateness p50 %.3fms is not small against open-loop p50 %.3fms", late50, p50)
	}

	all := &outcome{}
	all.merge(closed)
	all.merge(open)
	b.put("setup_s", "s", median(setups))
	b.put("heap_mb", "MB", median(heaps))
	b.put("query_p50_ms", "ms", p50)
	b.put("e2e.query_tail_ms", "ms", openTail)
	b.put("query_capacity_qps", "1/s", median(caps))
	b.put("query_ok_frac", "fraction", frac(int64(all.answered), int64(all.attempted)))
	b.put("self_hit_frac", "fraction", all.selfHitFrac())
	b.put("e2e.closed_p50_ms", "ms", closed50)
	b.put("e2e.closed_tail_ms", "ms", closedTail)
	b.note("self-hit: %.4f over %d distinct query photos in %d answered queries", all.selfHitFrac(), len(all.self), all.answered)

	// Updates: a query-only workload streams them into the quiet cluster
	// after its query load; then every workload drains bursts and
	// reindexes.
	if st == nil {
		st = startStream(b.r, in.stream, updateRate, vis)
		time.Sleep(quietStream)
	}
	if err := stopStream(); err != nil {
		return nil, err
	}
	applied, err := b.realtime(vis)
	if err != nil {
		return nil, err
	}

	if b.trace {
		tracedP50, _ := medianPct(ws.tracedLats, 50)
		if err := b.layers(ws.delta, initial, applied, late50, late99, p50, tracedP50); err != nil {
			return nil, err
		}
		for name := range b.metrics {
			if !isLayer(name) {
				delete(b.metrics, name)
			}
		}
	} else {
		for name := range b.metrics {
			if isLayer(name) {
				delete(b.metrics, name)
			}
		}
	}

	res := &result{
		Correct:   len(b.violations) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	return res, nil
}

// windowSet is what the timed windows observed.
type windowSet struct {
	closed, open *outcome // pooled over the untraced windows
	caps         []float64
	closedLats   [][]time.Duration // closed-loop latencies per untraced window
	openLats     [][]time.Duration // open-loop latencies per untraced window
	tracedLats   [][]time.Duration // open-loop latencies per traced window
	delta        counters          // traced runs: counters moved by untraced windows
}

// windows runs the timed query load as a sequence of windows, each a
// closed-loop segment (capacity) then an open-loop segment (latency), so a
// transient slowdown of the host shifts one window, not the run's medians.
// Each window starts from a collected heap: the set-up's garbage and the
// previous window's never land inside one. A traced run interleaves as many
// traced windows, which record a span per open-loop query, so tracing's
// overhead is not confounded with the run's drift; its cache ratios still
// come from untraced windows only.
func (b *bench) windows(cl *client.Client) (*windowSet, error) {
	n := max(1, int(b.seconds/windowLen))
	closedD := time.Duration(float64(b.seconds) * closedShare / float64(n))
	openD := b.seconds/time.Duration(n) - closedD
	ws := &windowSet{closed: &outcome{}, open: &outcome{}}
	if b.trace {
		n *= 2
	}
	for w := 0; w < n; w++ {
		var tr *tracer
		if w%2 == 1 && b.trace {
			tr = b.tr
		}
		var before *tierStats
		if b.trace {
			var err error
			if before, err = b.sr.read(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		c := closedLoop(cl, b.in.pool, b.in.closed[b.nextClosed:], closedD)
		b.nextClosed += c.attempted
		o := openLoop(cl, b.in.pool, b.in.open[b.nextOpen:], b.sp.rate, openD, tr)
		b.nextOpen += o.attempted
		b.check(c)
		b.check(o)
		if tr != nil {
			ws.tracedLats = append(ws.tracedLats, o.lat)
			continue
		}
		if b.trace {
			after, err := b.sr.read()
			if err != nil {
				return nil, err
			}
			ws.delta = ws.delta.add(after.counters().sub(before.counters()))
		}
		ws.caps = append(ws.caps, float64(c.answered)/c.elapsed.Seconds())
		ws.closedLats = append(ws.closedLats, c.lat)
		ws.openLats = append(ws.openLats, o.lat)
		ws.closed.merge(c)
		ws.open.merge(o)
	}
	return ws, nil
}

// chunks cuts samples into n consecutive chunks.
func chunks(samples []time.Duration, n int) [][]time.Duration {
	out := make([][]time.Duration, n)
	for i := range out {
		out[i] = samples[i*len(samples)/n : (i+1)*len(samples)/n]
	}
	return out
}

// medianPct is the median over groups of each group's p-th percentile in
// ms, and those percentiles.
func medianPct(groups [][]time.Duration, p float64) (v float64, all []float64) {
	for _, g := range groups {
		x, _ := pct(sortedFloats(asFloats(g, time.Millisecond)), p)
		all = append(all, x)
	}
	return median(all), all
}

// check folds a phase's outcome into the run's counts and violations.
func (b *bench) check(o *outcome) {
	b.attempted += o.attempted
	b.failed += o.failed
	b.violations = append(b.violations, o.violations...)
}

// realtime measures update visibility from the finished stream, then
// drains bursts to every replica and reindexes. It returns
// the tiers' stats as they stood before the reindex reset the shards.
func (b *bench) realtime(vis *visibility) (*tierStats, error) {
	missing := vis.wait(10 * time.Second)
	b.r.onApplied.Store(nil)
	vis.mu.Lock()
	lat := vis.lat
	vis.mu.Unlock()
	b.attempted += len(lat) + missing
	if missing > 0 {
		b.failed += missing
		b.violations = append(b.violations, fmt.Sprintf("%d updates not applied on every replica within 10s", missing))
	}
	vis50, vis50s := medianPct(chunks(lat, updateChunks), 50)
	pooled := sortedFloats(asFloats(lat, time.Millisecond))
	visTail, tp, beyond := tail(pooled)
	b.note("update visibility on every replica: %d events at %.0f/s in %d chunks", len(lat), updateRate, updateChunks)
	b.note("  p50: median of chunk p50s %.3fms %v", vis50, roundAll(vis50s))
	b.note("  pooled: p%g=%.3fms (%d samples beyond)", tp, visTail, beyond)
	b.put("e2e.update_visible_p50_ms", "ms", vis50)
	b.put("e2e.update_visible_tail_ms", "ms", visTail)

	var rates []float64
	// Like the query windows, each burst and the reindex start from a
	// collected heap.
	for _, burst := range b.in.bursts {
		runtime.GC()
		msgs, took, err := drain(b.r, b.sr, burst, 60*time.Second)
		if err != nil {
			return nil, err
		}
		b.attempted += len(burst)
		rates = append(rates, float64(msgs)/took.Seconds())
		b.note("drain: %d events, %d per-image messages, on every replica in %.3fs", len(burst), msgs, took.Seconds())
	}
	b.put("e2e.update_drain_ups", "1/s", median(rates))

	applied, err := b.sr.read()
	if err != nil {
		return nil, err
	}

	var totals, pushes []float64
	for i := 0; i < reindexes; i++ {
		runtime.GC()
		build, push, err := reindex(b.r)
		if err != nil {
			return nil, err
		}
		b.note("reindex: build %.3fs, push to %d searchers %.3fs", build.Seconds(), partitions*replicas, push.Seconds())
		totals = append(totals, (build + push).Seconds())
		pushes = append(pushes, push.Seconds())
	}
	b.put("reindex_s", "s", median(totals))
	b.put("searcher.push_s", "s", median(pushes))

	// Every searcher must have installed every pushed shard, and pages
	// must still pass.
	ts, err := b.sr.read()
	if err != nil {
		return nil, err
	}
	for p, g := range ts.searchers {
		for r, s := range g {
			if s.SnapshotLoads != reindexes {
				b.violations = append(b.violations, fmt.Sprintf("searcher p%d r%d installed %d snapshots, want %d", p, r, s.SnapshotLoads, reindexes))
			}
		}
	}
	cl, err := client.Dial(b.r.front.Addr(), 1)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var rec recorder
	for i := 0; i < 64; i++ {
		q := &b.in.pool[b.in.open[i]]
		resp, err := send(cl, q)
		rec.record(q, resp, err, 0)
	}
	b.check(&rec.o)
	return applied, nil
}

// layers computes the per-layer metrics of a traced run.
func (b *bench) layers(d counters, initial, applied *tierStats, late50, late99, p50, tracedP50 float64) error {
	b.put("loadgen.late_p50_ms", "ms", late50)
	b.put("loadgen.late_p99_ms", "ms", late99)
	b.put("trace.overhead_frac", "fraction", tracedP50/p50-1)

	b.put("frontend.retries", "count", float64(d.feRetries))
	b.put("blender.feature_cache_hit_frac", "fraction", frac(d.fcHits, d.fcHits+d.fcMisses))
	b.put("broker.result_cache_hit_frac", "fraction", frac(d.rcHits, d.rcHits+d.rcMisses))
	b.put("broker.stale_evictions", "count", float64(d.stale))
	b.put("broker.hedge_frac", "fraction", frac(d.hedges, d.brQueries-d.rcHits))
	b.put("broker.hedge_win_frac", "fraction", frac(d.hedgeWins, d.hedges))
	b.put("broker.failures", "count", float64(d.brFailures))
	b.put("broker.partials", "count", float64(d.partials))
	b.put("index.filtered_search_frac", "fraction", frac(d.filtered, d.searches))

	rep, violations, err := replay(b.r, b.sr, b.tr, b.in.replay)
	if err != nil {
		return err
	}
	b.attempted += len(b.in.replay)
	b.violations = append(b.violations, violations...)
	b.note("replays: %d samples, %d answered by a cache and left out", len(b.in.replay), rep.cacheTainted)
	b.put("trace.replay_cache_hits", "count", float64(rep.cacheTainted))
	hops, err := hopUS(b.sr.front, b.sr.blenders[0], 256)
	if err != nil {
		return err
	}
	b.put("frontend.self_us", "us", median(hops))
	b.put("blender.decode_us", "us", median(rep.decode))
	b.put("blender.detect_us", "us", median(rep.detect))
	b.put("blender.extract_us", "us", median(rep.extract))
	b.put("blender.rank_us", "us", median(rep.rank))
	b.put("blender.self_us", "us", median(rep.blenderSelf))
	b.put("broker.self_us", "us", median(rep.brokerSelf))
	b.put("searcher.call_us", "us", median(rep.searcherCall))
	b.put("searcher.self_us", "us", median(rep.searcherSelf))
	b.put("index.search_us", "us", median(rep.index))
	b.put("index.scanned_per_query", "count", mean(rep.scanned))
	b.put("index.probed_per_query", "count", mean(rep.probed))

	pings, err := pingUS(b.sr.searchers[0][0], 2000)
	if err != nil {
		return err
	}
	b.put("rpc.ping_us", "us", median(pings))

	// Real-time apply counters span the update phase, up to the reindex.
	var rtP99 int64
	for _, g := range applied.searchers {
		for _, s := range g {
			rtP99 = max(rtP99, s.RTP99Micros)
		}
	}
	rt := applied.counters().sub(initial.counters())
	applyErrs, inserts, reused := rt.applyErr, rt.inserts, rt.reused
	var codeBytes, featBytes int64
	now, err := b.sr.read()
	if err != nil {
		return err
	}
	for _, g := range now.searchers {
		for _, s := range g {
			codeBytes += s.Index.PQCodeBytes
			featBytes += s.Index.FeatureHeapBytes
		}
	}
	b.put("searcher.rt_apply_p99_us", "us", float64(rtP99))
	b.put("searcher.apply_errors", "count", float64(applyErrs))
	b.put("index.reused_insert_frac", "fraction", frac(reused, inserts))
	b.put("index.pq_code_mb", "MB", float64(codeBytes)/1e6)
	b.put("index.feature_heap_mb", "MB", float64(featBytes)/1e6)

	write, err := writeSnapshots(b.r)
	if err != nil {
		return err
	}
	b.put("index.write_snapshot_s", "s", write.Seconds())
	b.put("indexer.full_build_s", "s", median(b.builds))

	applies, err := applyUS(b.r, b.in.apply)
	if err != nil {
		return err
	}
	b.put("indexer.apply_us", "us", median(applies))
	pubs, err := publishUS(b.in.apply)
	if err != nil {
		return err
	}
	b.put("mq.publish_us", "us", median(pubs))

	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", b.sp.name, b.seed)
	if err := b.tr.write(path); err != nil {
		b.note("spans not written: %v", err)
	} else {
		b.note("spans: %d written to %s", len(b.tr.spans), path)
	}
	return nil
}

// isLayer reports whether a metric name is a per-layer one.
func isLayer(name string) bool { return strings.Contains(name, ".") }

func (b *bench) report(res *result) {
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, v := range b.violations {
		fmt.Println("VIOLATION:", v)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
