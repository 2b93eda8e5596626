// Package index implements the per-partition shard index a Searcher owns —
// the composition of every §2 structure into one searchable, real-time
// updatable unit:
//
//   - the forward index (product attributes, atomic field updates, Fig. 7);
//   - the IVF inverted index (lock-free appends/scans, expansion, Figs. 5,
//     8, 9) keyed by a k-means codebook;
//   - the validity bitmap (deletion and re-listing without structural
//     mutation);
//   - the in-shard feature matrix (distance computation on the scan path);
//   - URL → image and product → images lookup tables driving feature reuse
//     and product-level operations.
//
// Concurrency contract, straight from the paper: one real-time indexing
// writer per shard (the searcher's queue consumer, Fig. 4) mutates the
// index while any number of search threads read, without locks on the read
// path ("there is no conflict between search and update processes for
// maximum concurrency").
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"jdvs/internal/bitmapx"
	"jdvs/internal/core"
	"jdvs/internal/forward"
	"jdvs/internal/inverted"
	"jdvs/internal/kmeans"
	"jdvs/internal/pq"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// Config parameterises a shard.
type Config struct {
	// Dim is the feature dimensionality. Required.
	Dim int
	// NLists is the number of IVF inverted lists (k-means K). Required.
	NLists int
	// ListInitialCap pre-allocates each inverted list (default
	// inverted.DefaultInitialCap).
	ListInitialCap int
	// DefaultNProbe is the number of lists probed when a query does not
	// specify one (default 8, clamped to NLists).
	DefaultNProbe int
	// SearchWorkers is the number of goroutines one Search call uses to
	// scan its probed inverted lists — the paper's §2.4 "multi-thread
	// searching" inside a searcher. 1 scans serially on the calling
	// goroutine; values above 1 stripe the probed lists across that many
	// workers, each with its own top-k selector, merged at the end. The
	// default (when <= 0) derives from GOMAXPROCS. Parallel scans keep the
	// lock-free reader contract: any number of scan workers may run while
	// the single real-time writer mutates the shard.
	SearchWorkers int
	// PQSubvectors configures the product-quantized ADC scan path: the
	// number of subquantizers M; must divide Dim. 0 disables PQ training;
	// negative picks a dimension-derived default (pq.DefaultSubvectors).
	// Note the scan path itself follows the installed codebook, not this
	// knob: a shard only scans ADC codes once TrainPQ/SetPQCodebook has
	// run (or a PQ-bearing snapshot loaded), and falls back to the exact
	// float scan until then.
	PQSubvectors int
	// PQBits selects the centroid index width PQ training uses: 8 (256
	// centroids per subquantizer, M code bytes per image — the default
	// when zero) or 4 (16 centroids, two subquantizers packed per byte —
	// M/2 code bytes per image, scanned through the blocked fast-scan
	// kernel; requires an even PQSubvectors). Like PQSubvectors this knob
	// steers training; a loaded snapshot's codebook decides the live scan
	// path.
	PQBits int
	// RerankK is the ADC over-fetch depth: the approximate scan selects
	// this many candidates, which are then re-ranked exactly against the
	// raw feature rows before the final top-k. <= 0 derives a bit-width
	// default per query — 20×TopK at 8-bit codes, 30×TopK at 4-bit — from
	// the measured sweep recorded in docs/OPERATIONS.md (recall@10 ≥ 0.99
	// on the 100k sweep corpus, guarded by TestPQRecallGuardrail).
	// Clamped to [TopK, MaxTopK].
	RerankK int
	// FilterMaxNProbe caps the adaptive probe widening applied to
	// filtered queries (category scope or attribute predicates): when the
	// admission bitmap shows the filter is selective, the scan raises
	// nprobe — aiming for enough admitted candidates to fill the result
	// page — up to this many lists. 0 derives 8× the query's base nprobe,
	// clamped to NLists. Set it to NLists to let very selective filters
	// degrade to a full-shard scan and return every match.
	FilterMaxNProbe int
	// FilterMaxRerankK caps the matching ADC over-fetch widening: a
	// filtered query's re-rank depth scales with the same factor as its
	// probe widening, bounded by this knob. 0 derives 4× the unfiltered
	// depth, clamped to MaxTopK.
	FilterMaxRerankK int
	// FeatureStore selects where raw feature rows live: FeatureStoreRAM
	// ("ram", the default — heap chunks) or FeatureStoreMmap ("mmap" — an
	// unlinked spill file served through the page cache). With the ADC
	// scan path on M-byte codes, rows are touched only for re-rank,
	// exact-path fallback and PQ training, so tiering them to mmap drops
	// the per-image RAM cost from Dim×4 + M bytes to M bytes plus
	// whatever spill pages the kernel keeps resident — several× more
	// images per shard at the same RAM budget. Snapshots are
	// format-compatible across both stores.
	FeatureStore string
	// SpillDir is the directory FeatureStoreMmap creates spill files in
	// (default os.TempDir()). Files are unlinked at creation, so nothing
	// is left behind even on crash.
	SpillDir string
}

// MaxTopK caps a single query's result size. SearchRequest.TopK arrives
// from the wire as an unvalidated integer; without a bound a hostile
// request could size one top-k selector per scan worker at TopK entries
// each — and the scratch pool would pin those arrays after the query
// finished. 4096 is far above any real retrieval depth (the paper's
// searchers return tens of candidates per partition).
const MaxTopK = 4096

// maxDefaultSearchWorkers caps the GOMAXPROCS-derived default. Measured
// on BenchmarkSearchWorkers (50k images, nprobe 8/16/32): 8 workers never
// beat 4 at any probe width — at nprobe=8 each of 8 workers gets a single
// list, so per-query fan-out overhead eats the scan savings, and per-query
// allocations double (2720 B vs 1824 B). GitHub's ubuntu-latest CI runners
// (the BENCH_searcher.json source) expose 4 vCPUs, so a wider default was
// never exercisable there anyway. PR 1 guessed 8; the measurements say 4.
const maxDefaultSearchWorkers = 4

func defaultSearchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxDefaultSearchWorkers {
		n = maxDefaultSearchWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c *Config) validate() error {
	if c.Dim <= 0 {
		return errors.New("index: Dim must be positive")
	}
	if c.NLists <= 0 {
		return errors.New("index: NLists must be positive")
	}
	if c.DefaultNProbe <= 0 {
		c.DefaultNProbe = 8
	}
	if c.DefaultNProbe > c.NLists {
		c.DefaultNProbe = c.NLists
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = defaultSearchWorkers()
	}
	if c.PQSubvectors < 0 {
		c.PQSubvectors = pq.DefaultSubvectors(c.Dim)
	}
	if c.PQSubvectors > 0 && c.Dim%c.PQSubvectors != 0 {
		return fmt.Errorf("index: PQSubvectors %d must divide Dim %d", c.PQSubvectors, c.Dim)
	}
	switch c.PQBits {
	case 0:
		c.PQBits = 8
	case 8:
	case 4:
		if c.PQSubvectors > 0 && c.PQSubvectors%2 != 0 {
			return fmt.Errorf("index: PQBits 4 packs two subquantizers per byte; PQSubvectors %d must be even", c.PQSubvectors)
		}
	default:
		return fmt.Errorf("index: PQBits must be 4 or 8, got %d", c.PQBits)
	}
	if c.RerankK < 0 {
		c.RerankK = 0
	}
	if c.FilterMaxNProbe < 0 {
		c.FilterMaxNProbe = 0
	}
	if c.FilterMaxNProbe > c.NLists {
		c.FilterMaxNProbe = c.NLists
	}
	if c.FilterMaxRerankK < 0 {
		c.FilterMaxRerankK = 0
	}
	if c.FilterMaxRerankK > MaxTopK {
		c.FilterMaxRerankK = MaxTopK
	}
	switch c.FeatureStore {
	case "":
		c.FeatureStore = FeatureStoreRAM
	case FeatureStoreRAM, FeatureStoreMmap:
	default:
		return fmt.Errorf("index: unknown FeatureStore %q (want %q or %q)",
			c.FeatureStore, FeatureStoreRAM, FeatureStoreMmap)
	}
	return nil
}

// Stats is a point-in-time summary of shard state.
type Stats struct {
	Images      int // total records ever appended
	ValidImages int // images whose validity bit is set
	Products    int // distinct product IDs seen
	Lists       int
	PQCodes     int // PQ-encoded rows (0 when the shard scans exact floats)
	// PQBits is the installed quantizer's centroid index width (8 or 4;
	// 0 when the shard scans exact floats), and PQCodeBytes the memory its
	// code storage holds (chunk-rounded) — the number 4-bit mode halves.
	PQBits        int
	PQCodeBytes   int64
	Inserts       int64
	ReusedInserts int64 // insertions satisfied by flipping validity back on
	// FeatureRefreshes counts re-listings whose feature vector differed
	// from the stored row: the image was re-indexed under a fresh row,
	// code and inverted entry, and the stale generation tombstoned.
	FeatureRefreshes int64
	Deletions        int64
	AttrUpdates      int64
	// FilteredSearches counts queries that took the bitmap-admission path
	// (category scope or attribute predicates set).
	FilteredSearches int64
	// FeatureHeapBytes is the Go-heap memory held by raw feature-row
	// storage — Dim×4 per image (rounded up to chunks) for the RAM store,
	// near zero for the mmap store, whose rows live in the page cache.
	FeatureHeapBytes int64
}

// Shard is one partition's index. Construct with New, then Train (or
// install a codebook / load a snapshot) before inserting.
type Shard struct {
	cfg Config

	codebook *kmeans.Codebook // immutable once installed
	fwd      *forward.Index
	inv      *inverted.Index
	valid    *bitmapx.Bitmap
	feats    rowStore

	// cats is the atomically published per-category bitmap directory,
	// indexed by category value: cats[c] holds a set bit for every image
	// whose forward record carries category c. Maintained by the single
	// real-time writer under the same lock-free publish protocol as valid
	// (membership bit set before the image's validity publishes it, and on
	// category moves the new bit is set before the old one clears), read
	// by any number of filtered scans. Validity is NOT encoded here — the
	// admission path intersects with valid — so deletion and re-listing
	// stay single-bit flips.
	cats atomic.Pointer[[]*bitmapx.Bitmap]

	// attrEpoch counts price/sales mutations; the predicate-bitmap cache
	// keys on it so a materialised price/sales bitmap is dropped once the
	// attributes under it move. Appends don't bump it: cached bitmaps
	// record the row count they covered and the scan falls back to
	// per-candidate checks beyond it.
	attrEpoch atomic.Uint64
	// predCache is the atomically published set of materialised
	// attribute-predicate bitmaps, built lazily by querying goroutines
	// (construction reads only lock-free structures) and replaced
	// wholesale when attrEpoch moves.
	predCache atomic.Pointer[predState]

	filteredSearches atomic.Int64

	// pqState is the atomically published (codebook, code matrix) pair of
	// the ADC scan path. nil means no product quantizer is installed and
	// searches take the exact float path. Published only after every
	// existing feature row has been encoded, so readers always see codes
	// in lockstep with features; thereafter the single real-time writer
	// appends to both.
	pqState atomic.Pointer[shardPQ]
	// codeScratch is the writer's per-insert encode buffer (single-writer
	// contract: Insert is never concurrent with itself).
	codeScratch []byte

	// coveredOffset is the message-queue offset this shard's contents
	// cover (the next offset a real-time consumer should read). Carried in
	// snapshots so a pushed full index tells the receiving searcher how
	// far it can skip.
	coveredOffset atomic.Int64

	// Lookup tables for the real-time indexing writer. Guarded by tabMu:
	// written only by the single writer, read by Stats/tests and the
	// writer itself.
	tabMu     sync.RWMutex
	byURL     map[string]core.ImageID
	byProduct map[uint64][]core.ImageID

	// searchWorkers is the live intra-query scan parallelism, initialised
	// from cfg.SearchWorkers and adjustable at runtime (SetSearchWorkers)
	// while searches are in flight.
	searchWorkers atomic.Int32

	statsMu sync.Mutex
	stats   Stats
}

// New returns an untrained shard.
func New(cfg Config) (*Shard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	feats, err := newFeatStore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		cfg:       cfg,
		fwd:       forward.New(),
		inv:       inverted.New(cfg.NLists, cfg.ListInitialCap),
		valid:     bitmapx.New(0),
		feats:     feats,
		byURL:     make(map[string]core.ImageID),
		byProduct: make(map[uint64][]core.ImageID),
	}
	s.searchWorkers.Store(int32(cfg.SearchWorkers))
	return s, nil
}

// Close releases feature-store resources — the mmap store's spill file
// and mappings; a no-op for the RAM store. Searches and the writer must
// be quiesced. Shards dropped without Close (e.g. hot-swapped out by a
// snapshot push) are backstopped by a finalizer on the store.
func (s *Shard) Close() error { return s.feats.Close() }

// ErrNotTrained is returned by operations requiring a codebook.
var ErrNotTrained = errors.New("index: codebook not trained")

// ErrUnknownProduct is returned by product-level operations on products the
// shard has never seen.
var ErrUnknownProduct = errors.New("index: unknown product")

// Train fits the IVF codebook on the given training features (flat row-major
// n×Dim) — §2.2's "k-mean algorithm on a set of training data set".
func (s *Shard) Train(features []float32, seed int64) error {
	cb, err := kmeans.Train(kmeans.Config{K: s.cfg.NLists, Dim: s.cfg.Dim, Seed: seed}, features)
	if err != nil {
		return fmt.Errorf("index: train: %w", err)
	}
	s.codebook = cb
	return nil
}

// SetCodebook installs a pre-trained codebook (full indexing distributes
// one codebook to all shards so cluster IDs agree).
func (s *Shard) SetCodebook(cb *kmeans.Codebook) error {
	if cb.Dim != s.cfg.Dim {
		return fmt.Errorf("index: codebook dim %d, shard dim %d", cb.Dim, s.cfg.Dim)
	}
	if cb.K != s.cfg.NLists {
		return fmt.Errorf("index: codebook K %d, shard NLists %d", cb.K, s.cfg.NLists)
	}
	s.codebook = cb
	return nil
}

// Codebook returns the installed codebook (nil if untrained).
func (s *Shard) Codebook() *kmeans.Codebook { return s.codebook }

// Trained reports whether a codebook is installed.
func (s *Shard) Trained() bool { return s.codebook != nil }

// shardPQ is the published state of the ADC scan path: the product
// quantizer and the code storage it produced, always in lockstep with the
// feature matrix. 8-bit codebooks fill codes (an ID-keyed matrix, scanned
// per candidate); 4-bit codebooks fill lists (per-inverted-list blocked
// fast-scan storage, scanned per 32-code block) — exactly one of the two
// is non-nil.
type shardPQ struct {
	cb    *pq.Codebook
	codes *codeMat      // 8-bit: code of image id at row id
	lists []*codeBlocks // 4-bit: code of a list's i-th entry at slot i
}

// codeCount returns the number of committed codes.
func (ps *shardPQ) codeCount() int {
	if ps.codes != nil {
		return ps.codes.Len()
	}
	n := 0
	for _, cb := range ps.lists {
		n += int(cb.published())
	}
	return n
}

// codeHeapBytes returns the memory code storage holds (chunk-rounded).
func (ps *shardPQ) codeHeapBytes() int64 {
	if ps.codes != nil {
		return ps.codes.heapBytes()
	}
	n := int64(0)
	for _, cb := range ps.lists {
		n += cb.heapBytes()
	}
	return n
}

// TrainPQ fits the product-quantization codebook on the given training
// features (flat row-major n×Dim), encodes every stored feature row, and
// switches searches to the ADC scan path. Requires Config.PQSubvectors.
// Like snapshot operations it must run in the writer's context (no
// concurrent Insert); searches keep running on the exact path until the
// encoded codes publish atomically.
func (s *Shard) TrainPQ(features []float32, seed int64) error {
	if s.cfg.PQSubvectors <= 0 {
		return errors.New("index: PQSubvectors not configured")
	}
	cb, err := pq.Train(pq.Config{Dim: s.cfg.Dim, M: s.cfg.PQSubvectors, Bits: s.cfg.PQBits, Seed: seed}, features)
	if err != nil {
		return fmt.Errorf("index: train pq: %w", err)
	}
	return s.installPQ(cb)
}

// TrainPQStored is TrainPQ training on up to sample of the shard's own
// stored feature rows — the lazy re-encode path for shards loaded from a
// pre-PQ snapshot, which carry features but no codes. sample <= 0 trains
// on every row. The sample strides evenly across the matrix rather than
// taking a prefix: rows arrive in insertion order (often product- or
// time-clustered), and a prefix sample would fit the quantizer to one
// slice of the feature distribution.
func (s *Shard) TrainPQStored(sample int, seed int64) error {
	// Keep the mmap mapping alive across the Row reads (see Search).
	defer runtime.KeepAlive(s)
	n := s.feats.Len()
	if n == 0 {
		return errors.New("index: no stored features to train PQ on")
	}
	if sample <= 0 || sample > n {
		sample = n
	}
	stride := n / sample
	train := make([]float32, 0, sample*s.cfg.Dim)
	for i := 0; i < sample; i++ {
		train = append(train, s.feats.Row(uint32(i*stride))...)
	}
	return s.TrainPQ(train, seed)
}

// SetPQCodebook installs a pre-trained product quantizer (full indexing
// distributes one PQ codebook to all shards alongside the IVF codebook),
// encoding every stored row before the ADC path publishes. Writer-context
// only, like TrainPQ.
func (s *Shard) SetPQCodebook(cb *pq.Codebook) error {
	if err := cb.Valid(); err != nil {
		return err
	}
	if cb.Dim != s.cfg.Dim {
		return fmt.Errorf("index: pq codebook dim %d, shard dim %d", cb.Dim, s.cfg.Dim)
	}
	return s.installPQ(cb)
}

// installPQ backfills codes for every committed feature row and publishes
// the ADC state. 8-bit codes backfill the ID-keyed matrix in row order;
// 4-bit codes backfill each inverted list's blocked storage in list order,
// because a 4-bit slot must match the position of the id the list yields
// (codeBlocks contract). Writer-context only — the list walk below assumes
// no concurrent appends.
func (s *Shard) installPQ(cb *pq.Codebook) error {
	// Keep the mmap mapping alive across the Row reads (see Search).
	defer runtime.KeepAlive(s)
	if cb.Bits == 4 {
		lists := make([]*codeBlocks, s.cfg.NLists)
		code := make([]byte, cb.CodeBytes())
		var encErr error
		for l := range lists {
			blocks := newCodeBlocks(cb.CodeBytes())
			s.inv.Scan(l, func(id uint32) bool {
				row := s.feats.Row(id)
				if row == nil {
					encErr = fmt.Errorf("index: pq backfill: list %d id %d has no feature row", l, id)
					return false
				}
				if err := cb.Encode(row, code); err != nil {
					encErr = fmt.Errorf("index: pq encode row %d: %w", id, err)
					return false
				}
				blocks.append(code)
				return true
			})
			if encErr != nil {
				return encErr
			}
			lists[l] = blocks
		}
		s.pqState.Store(&shardPQ{cb: cb, lists: lists})
		return nil
	}
	codes := newCodeMat(cb.M)
	n := uint32(s.feats.Len())
	code := make([]byte, cb.M)
	for id := uint32(0); id < n; id++ {
		if err := cb.Encode(s.feats.Row(id), code); err != nil {
			return fmt.Errorf("index: pq encode row %d: %w", id, err)
		}
		if _, err := codes.Append(code); err != nil {
			return fmt.Errorf("index: pq backfill row %d: %w", id, err)
		}
	}
	s.pqState.Store(&shardPQ{cb: cb, codes: codes})
	return nil
}

// PQEnabled reports whether searches currently scan ADC codes.
func (s *Shard) PQEnabled() bool { return s.pqState.Load() != nil }

// PQCodebook returns the installed product quantizer (nil when the shard
// scans exact floats).
func (s *Shard) PQCodebook() *pq.Codebook {
	if ps := s.pqState.Load(); ps != nil {
		return ps.cb
	}
	return nil
}

// CoveredOffset returns the message-queue offset this shard's contents
// cover (0 when unknown).
func (s *Shard) CoveredOffset() int64 { return s.coveredOffset.Load() }

// SetCoveredOffset records the queue offset the shard's contents cover; it
// travels with snapshots so receivers can fast-forward their real-time
// consumers past replayed messages.
func (s *Shard) SetCoveredOffset(off int64) {
	if off < 0 {
		off = 0
	}
	s.coveredOffset.Store(off)
}

// Config returns the shard's configuration, reflecting any runtime
// SetSearchWorkers adjustment so derived shards (snapshot loads, clones)
// inherit the live setting.
func (s *Shard) Config() Config {
	cfg := s.cfg
	cfg.SearchWorkers = int(s.searchWorkers.Load())
	return cfg
}

// SearchWorkers returns the current intra-query scan parallelism.
func (s *Shard) SearchWorkers() int { return int(s.searchWorkers.Load()) }

// SetSearchWorkers adjusts the intra-query scan parallelism at runtime;
// n <= 0 restores the configured value. Safe to call concurrently with
// searches — in-flight queries finish at the old width.
func (s *Shard) SetSearchWorkers(n int) {
	if n <= 0 {
		n = s.cfg.SearchWorkers
	}
	s.searchWorkers.Store(int32(n))
}

// Insert adds an image with its feature vector and product attributes
// (Fig. 8). If the URL was indexed before — the product was "removed from
// the market and put back" (§2.3) — and the supplied feature is nil or
// matches the stored row, the record and features are reused: the
// validity bit flips on, attributes refresh, and no new forward/inverted
// entries are created. A re-listing that supplies a *different* vector is
// NOT a reuse: the image is re-indexed under a fresh row, PQ code and
// inverted-list entry (serving the old vector forever was the stale-
// feature hole this closes), and the stale generation is tombstoned. It
// returns the image's (possibly new) ID and whether an existing record
// was reused.
func (s *Shard) Insert(attrs core.Attrs, feature []float32) (core.ImageID, bool, error) {
	// The reuse path below compares against a stored row; keep the mmap
	// mapping alive across that read (see Search).
	defer runtime.KeepAlive(s)
	if s.codebook == nil {
		return 0, false, ErrNotTrained
	}
	if attrs.URL == "" {
		return 0, false, errors.New("index: insert needs an image URL")
	}
	if len(attrs.URL) > forward.MaxURLLen {
		// Reject before appendRow commits anything: the feature row is
		// appended before the forward record, so a URL the forward index
		// would refuse must never reach it — a half-committed generation
		// would leave the matrices permanently skewed.
		return 0, false, fmt.Errorf("index: %w (%d bytes)", forward.ErrURLTooLong, len(attrs.URL))
	}

	s.tabMu.RLock()
	id, exists := s.byURL[attrs.URL]
	s.tabMu.RUnlock()
	if exists {
		if feature != nil {
			// The reuse path historically skipped this validation, so a
			// wrong-dim re-listing silently succeeded.
			if len(feature) != s.cfg.Dim {
				return 0, false, fmt.Errorf("index: feature dim %d, shard dim %d", len(feature), s.cfg.Dim)
			}
			if !rowsEqual(s.feats.Row(id), feature) {
				return s.refreshFeature(id, attrs, feature)
			}
		}
		// Reuse path: refresh numeric attributes — including the category,
		// or a product re-listed under a new category keeps serving its old
		// one to category-scoped searches — then revalidate. The validity
		// bit is the publish step (as in the fresh-insert path): flipping it
		// before the refresh would let a concurrent scoped search serve the
		// image under its stale attributes.
		s.fwd.SetSales(id, attrs.Sales)
		s.fwd.SetPraise(id, attrs.Praise)
		s.fwd.SetPrice(id, attrs.PriceCents)
		s.moveCategory(id, attrs.Category)
		s.attrEpoch.Add(1)
		// A re-listing may also attach the image to a different product:
		// move it so product-level removals and updates address it under
		// its current owner (full indexing rebuilds this mapping from the
		// event log; the real-time path must agree).
		if old, ok := s.fwd.ProductID(id); ok && old != attrs.ProductID {
			s.fwd.SetProductID(id, attrs.ProductID)
			s.tabMu.Lock()
			s.dropProductImageLocked(old, id)
			s.byProduct[attrs.ProductID] = append(s.byProduct[attrs.ProductID], id)
			s.tabMu.Unlock()
		}
		s.valid.Set(id)
		s.bump(func(st *Stats) { st.Inserts++; st.ReusedInserts++ })
		return id, true, nil
	}

	if len(feature) != s.cfg.Dim {
		return 0, false, fmt.Errorf("index: feature dim %d, shard dim %d", len(feature), s.cfg.Dim)
	}
	id, err := s.appendRow(attrs, feature)
	if err != nil {
		return 0, false, err
	}
	s.valid.Set(id)

	s.tabMu.Lock()
	s.byURL[attrs.URL] = id
	s.byProduct[attrs.ProductID] = append(s.byProduct[attrs.ProductID], id)
	s.tabMu.Unlock()

	s.bump(func(st *Stats) { st.Inserts++ })
	return id, false, nil
}

// appendRow commits a new image generation — feature row, forward record,
// PQ code (when a quantizer is installed) and inverted-list entry — and
// returns its ID. The caller publishes it by setting the validity bit.
// The feature row goes first: with a disk-backed store it is the one step
// that can genuinely fail at runtime (spill-file growth hitting ENOSPC),
// and appending it before anything else means such a failure commits
// nothing — the shard keeps ingesting once space frees, instead of being
// wedged behind a forward record with no row (permanent id skew). The
// remaining appends only fail on invariant violations.
func (s *Shard) appendRow(attrs core.Attrs, feature []float32) (core.ImageID, error) {
	fid, err := s.feats.Append(feature)
	if err != nil {
		return 0, fmt.Errorf("index: feature append: %w", err)
	}
	id, err := s.fwd.Append(attrs)
	if err != nil {
		return 0, fmt.Errorf("index: forward append: %w", err)
	}
	if fid != id {
		return 0, fmt.Errorf("index: id skew: forward %d, features %d", id, fid)
	}
	// Category membership publishes before the validity bit does (the
	// caller's publish step), so a scoped scan that sees the image as
	// valid also finds it in its category's bitmap.
	s.ensureCat(attrs.Category).Set(id)
	cluster := s.codebook.Assign(feature)
	if ps := s.pqState.Load(); ps != nil {
		// Keep code storage in lockstep: the code must be committed before
		// the inverted entry and validity bit make the id scannable. The
		// 4-bit layout is keyed by list position, so its append targets the
		// id's inverted list and must slot in exactly where inv.Append is
		// about to place the id.
		mb := ps.cb.CodeBytes()
		if cap(s.codeScratch) < mb {
			s.codeScratch = make([]byte, mb)
		}
		code := s.codeScratch[:mb]
		if err := ps.cb.Encode(feature, code); err != nil {
			return 0, fmt.Errorf("index: pq encode: %w", err)
		}
		if ps.codes != nil {
			cid, err := ps.codes.Append(code)
			if err != nil {
				return 0, fmt.Errorf("index: pq code append: %w", err)
			}
			if cid != id {
				return 0, fmt.Errorf("index: id skew: forward %d, codes %d", id, cid)
			}
		} else {
			blocks := ps.lists[cluster]
			if slot, have := int(blocks.published()), s.inv.ListLen(cluster); slot != have {
				return 0, fmt.Errorf("index: list %d slot skew: codes %d, inverted %d", cluster, slot, have)
			}
			blocks.append(code)
		}
	}
	if err := s.inv.Append(cluster, id); err != nil {
		return 0, fmt.Errorf("index: inverted append: %w", err)
	}
	return id, nil
}

// refreshFeature re-indexes a re-listed URL whose feature vector changed.
// Rows, codes and inverted entries are immutable under the lock-free
// reader contract, so the refresh appends a fresh generation — new row,
// new code, entry in the vector's *current* inverted list — and
// tombstones the stale ID instead of mutating it in place (which would
// tear under concurrent scans). The new generation is appended first
// (invisible until its validity bit publishes it), so a failed append
// leaves the old generation serving; then the stale ID's bit is cleared
// just before the new one is set. A search strictly between the two bit
// flips misses the image; one that straddles them (checked the stale bit
// before the clear, reached the new entry after the set) can transiently
// score both generations and return the URL twice — the same
// single-writer visibility window every non-atomic §2.3 update has, gone
// by the next query.
func (s *Shard) refreshFeature(stale core.ImageID, attrs core.Attrs, feature []float32) (core.ImageID, bool, error) {
	oldProduct, hadProduct := s.fwd.ProductID(stale)
	id, err := s.appendRow(attrs, feature)
	if err != nil {
		return 0, false, err
	}
	s.valid.Clear(stale)
	s.valid.Set(id)

	s.tabMu.Lock()
	s.byURL[attrs.URL] = id
	if hadProduct {
		s.dropProductImageLocked(oldProduct, stale)
	}
	s.byProduct[attrs.ProductID] = append(s.byProduct[attrs.ProductID], id)
	s.tabMu.Unlock()

	s.bump(func(st *Stats) { st.Inserts++; st.FeatureRefreshes++ })
	return id, false, nil
}

// dropProductImageLocked removes id from byProduct[product], deleting the
// entry when it empties. Caller holds tabMu.
func (s *Shard) dropProductImageLocked(product uint64, id core.ImageID) {
	olds := s.byProduct[product]
	kept := make([]core.ImageID, 0, max(len(olds)-1, 0))
	for _, v := range olds {
		if v != id {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		delete(s.byProduct, product)
	} else {
		s.byProduct[product] = kept
	}
}

// rowsEqual compares a stored row against an incoming vector bitwise —
// NaNs compare equal to themselves, so a NaN-carrying vector cannot force
// a fresh generation on every re-listing.
func rowsEqual(row, feature []float32) bool {
	if len(row) != len(feature) {
		return false
	}
	for i := range row {
		if math.Float32bits(row[i]) != math.Float32bits(feature[i]) {
			return false
		}
	}
	return true
}

// catBitmap returns the live membership bitmap of category cat, or nil if
// the shard has never indexed an image under it.
func (s *Shard) catBitmap(cat uint16) *bitmapx.Bitmap {
	dir := s.cats.Load()
	if dir == nil || int(cat) >= len(*dir) {
		return nil
	}
	return (*dir)[cat]
}

// ensureCat returns category cat's bitmap, growing the directory
// copy-on-write when absent. Called only from the single real-time
// indexing writer (or quiesced loads), so the load-copy-store below never
// races with another writer; concurrent filtered scans see either the old
// or the new directory, both internally consistent.
func (s *Shard) ensureCat(cat uint16) *bitmapx.Bitmap {
	if b := s.catBitmap(cat); b != nil {
		return b
	}
	var old []*bitmapx.Bitmap
	if dir := s.cats.Load(); dir != nil {
		old = *dir
	}
	next := make([]*bitmapx.Bitmap, max(len(old), int(cat)+1))
	copy(next, old)
	b := bitmapx.New(0)
	next[cat] = b
	s.cats.Store(&next)
	return b
}

// moveCategory keeps the per-category bitmaps in lockstep with a forward
// category update. Publication order is the category-bitmap invariant: the
// new category's bit is set first, then the forward record, and the old
// bit clears last — a valid image is always a member of at least the
// bitmap matching its forward category, so a scoped scan intersecting
// (valid ∧ category) never drops an image mid-move. The transient overlap
// (member of both bitmaps) can admit the image into a scan scoped to its
// old category for one visibility window; the hit carries its forward
// (new) category, so the blender's post-merge re-check drops it.
func (s *Shard) moveCategory(id core.ImageID, newCat uint16) {
	_, _, _, old, ok := s.fwd.Numeric(id)
	s.ensureCat(newCat).Set(id)
	s.fwd.SetCategory(id, newCat)
	if ok && old != newCat {
		if b := s.catBitmap(old); b != nil {
			b.Clear(id)
		}
	}
}

// predKey identifies one attribute-predicate combination.
type predKey struct {
	minSales, minPrice, maxPrice uint32
}

// predEntry is one materialised predicate bitmap: a set bit for every
// forward record — valid or not; validity is intersected separately —
// whose sales/price pass the key's predicates, covering rows
// [0, builtLen). Ids at or beyond builtLen take the per-candidate slow
// path instead.
type predEntry struct {
	words    bitmapx.Words
	builtLen uint32
}

// predState is the predicate-bitmap cache published for one attrEpoch
// value; an epoch mismatch discards it wholesale.
type predState struct {
	epoch   uint64
	entries map[predKey]*predEntry
}

// maxPredEntries bounds the cache; predicate combinations beyond it evict
// arbitrarily on the next publish.
const maxPredEntries = 8

// predWords returns the materialised bitmap for the request's attribute
// predicates, building and caching it when absent. Any querying goroutine
// may build — construction reads only lock-free structures — and when two
// race, the last publish wins and the loser's work is one wasted O(rows)
// pass. A price/sales update concurrent with a build can leave one stale
// bit in the entry for the rest of the epoch; that is the same visibility
// window as any §2.3 non-atomic update, and the blender's post-merge
// re-check drops such a hit.
func (s *Shard) predWords(req *core.SearchRequest) *predEntry {
	key := predKey{minSales: req.MinSales, minPrice: req.MinPriceCents, maxPrice: req.MaxPriceCents}
	epoch := s.attrEpoch.Load()
	cur := s.predCache.Load()
	if cur != nil && cur.epoch == epoch {
		if e, ok := cur.entries[key]; ok {
			return e
		}
	}
	n := uint32(s.fwd.Len())
	e := &predEntry{builtLen: n, words: make(bitmapx.Words, (n+63)/64)}
	for id := uint32(0); id < n; id++ {
		sales, _, price, _, ok := s.fwd.Numeric(id)
		if ok && req.MatchesAttrs(sales, price) {
			e.words[id/64] |= 1 << (id % 64)
		}
	}
	next := &predState{epoch: epoch, entries: map[predKey]*predEntry{key: e}}
	if cur != nil && cur.epoch == epoch {
		for k, v := range cur.entries {
			if len(next.entries) >= maxPredEntries {
				break
			}
			next.entries[k] = v
		}
	}
	s.predCache.Store(next)
	return e
}

// admission is the per-query candidate filter shared by the exact and ADC
// scan paths. Unfiltered queries keep the zero-copy live path: one atomic
// read against the validity bitmap per candidate. Filtered queries
// pre-intersect validity ∧ category ∧ attribute predicates into one flat
// bitmap, so the scan admits a candidate with a single word test instead
// of a forward lookup each, and the set-bit count prices the filter's
// selectivity before any list is probed. The bitmap is a snapshot: rows
// published or delisted mid-query are invisible to it — the usual
// single-writer visibility window. Ids at or beyond tail (rows appended
// after the snapshot, or past a cached predicate bitmap's build length)
// fall back to the pre-pushdown per-candidate check.
type admission struct {
	s          *Shard
	req        *core.SearchRequest
	live       *bitmapx.Bitmap // unfiltered: consult the live validity bitmap
	words      bitmapx.Words   // filtered: pre-intersected admission words
	tail       uint32          // ids ≥ tail take the slow per-candidate path
	matches    int             // set bits in words (selectivity estimate)
	exhaustive bool            // words covered every committed row at build time
}

// admit reports whether candidate id passes the query's filter.
func (a *admission) admit(id uint32) bool {
	if a.live != nil {
		return a.live.Get(id)
	}
	if id >= a.tail {
		return a.s.admitSlow(id, a.req)
	}
	return a.words.Get(id)
}

// admitSlow is the per-candidate fallback for ids beyond the admission
// bitmap's coverage: one validity read plus one forward lookup, exactly
// the pre-pushdown check.
func (s *Shard) admitSlow(id uint32, req *core.SearchRequest) bool {
	if !s.valid.Get(id) {
		return false
	}
	sales, _, price, cat, ok := s.fwd.Numeric(id)
	if !ok {
		return false
	}
	if req.Category >= 0 && int32(cat) != req.Category {
		return false
	}
	return req.MatchesAttrs(sales, price)
}

// buildAdmission assembles the query's candidate filter into the pooled
// scratch buffers. The empty-and-exhaustive result (no committed row can
// pass, e.g. a never-seen category) lets Search return an empty page
// without probing anything.
func (s *Shard) buildAdmission(req *core.SearchRequest, sc *searchScratch) admission {
	if req.Category < 0 && !req.HasPredicates() {
		return admission{live: s.valid}
	}
	a := admission{s: s, req: req}
	if req.Category > math.MaxUint16 {
		// Forward records store the category as uint16; nothing can match.
		a.exhaustive = true
		return a
	}
	sc.adm = s.valid.AppendWords(sc.adm[:0])
	tail := uint32(len(sc.adm)) * 64
	if req.Category >= 0 {
		cb := s.catBitmap(uint16(req.Category))
		if cb == nil {
			// No committed row has ever carried the category.
			a.exhaustive = true
			return a
		}
		sc.admCat = cb.AppendWords(sc.admCat[:0])
		// The category bitmap may trail the validity bitmap in growth;
		// absent words mean "not a member", so pad with zeros rather than
		// letting And truncate the coverage.
		for len(sc.admCat) < len(sc.adm) {
			sc.admCat = append(sc.admCat, 0)
		}
		sc.adm = bitmapx.And(sc.adm, sc.adm, sc.admCat)
	}
	if req.HasPredicates() {
		e := s.predWords(req)
		sc.adm = bitmapx.And(sc.adm, sc.adm, e.words)
		if t := uint32(len(sc.adm)) * 64; t < tail {
			tail = t
		}
		if e.builtLen < tail {
			tail = e.builtLen
		}
	}
	a.words = sc.adm
	a.tail = tail
	a.matches = a.words.Count()
	a.exhaustive = tail >= uint32(s.fwd.Len())
	return a
}

// filterCandidateTarget is how many admitted candidates — as a multiple of
// k — the widened probe set should surface in expectation.
const filterCandidateTarget = 3

// widenNProbe adaptively raises a filtered query's probe width: with
// matches admitted images spread across NLists lists, probing nprobe lists
// surfaces ≈ matches·nprobe/NLists admitted candidates in expectation; aim
// for filterCandidateTarget·k of them, clamped to FilterMaxNProbe (0
// derives 8× the base width). An explicit wide nprobe is never narrowed.
func (s *Shard) widenNProbe(nprobe, k, matches int) int {
	maxProbe := s.cfg.FilterMaxNProbe
	if maxProbe <= 0 {
		maxProbe = 8 * nprobe
	}
	if maxProbe > s.cfg.NLists {
		maxProbe = s.cfg.NLists
	}
	if maxProbe < nprobe {
		return nprobe
	}
	if matches <= 0 {
		// Every match (if any) lives past the bitmap's coverage — fresh
		// appends only; assume worst-case selectivity.
		return maxProbe
	}
	want := (filterCandidateTarget*k*s.cfg.NLists + matches - 1) / matches
	if want <= nprobe {
		return nprobe
	}
	if want > maxProbe {
		want = maxProbe
	}
	return want
}

// widenRerank scales a filtered query's ADC over-fetch depth by the same
// factor as its probe widening, capped by FilterMaxRerankK (0 derives 4×
// the unfiltered depth) and MaxTopK.
func (s *Shard) widenRerank(r, boost int) int {
	if boost <= 1 {
		return r
	}
	maxR := s.cfg.FilterMaxRerankK
	if maxR <= 0 {
		maxR = 4 * r
	}
	if maxR > MaxTopK {
		maxR = MaxTopK
	}
	if maxR < r {
		maxR = r
	}
	if r > maxR/boost {
		return maxR
	}
	return r * boost
}

// HasURL reports whether the shard has ever indexed url (valid or not).
func (s *Shard) HasURL(url string) bool {
	s.tabMu.RLock()
	defer s.tabMu.RUnlock()
	_, ok := s.byURL[url]
	return ok
}

// RemoveProduct flips the validity bit of every image of the product to 0
// (§2.3 "Deletion: ... as simple as changing the corresponding validity
// flag in the bitmap from 1 (valid) to 0 (invalid)").
func (s *Shard) RemoveProduct(productID uint64) (int, error) {
	s.tabMu.RLock()
	ids := s.byProduct[productID]
	s.tabMu.RUnlock()
	if len(ids) == 0 {
		return 0, fmt.Errorf("%w: %d", ErrUnknownProduct, productID)
	}
	n := 0
	for _, id := range ids {
		if s.valid.Clear(id) {
			n++
		}
	}
	s.bump(func(st *Stats) { st.Deletions += int64(n) })
	return n, nil
}

// RemoveImageURL flips the validity bit of one image addressed by URL —
// the per-image deletion path used when update events are routed by
// hash(URL) to the owning partition. It reports whether the bit changed.
func (s *Shard) RemoveImageURL(url string) (bool, error) {
	s.tabMu.RLock()
	id, ok := s.byURL[url]
	s.tabMu.RUnlock()
	if !ok {
		return false, fmt.Errorf("%w: url %q", ErrUnknownProduct, url)
	}
	changed := s.valid.Clear(id)
	if changed {
		s.bump(func(st *Stats) { st.Deletions++ })
	}
	return changed, nil
}

// UpdateAttrsURL atomically updates the numeric attributes — sales,
// praise, price and category — of one image addressed by URL (Fig. 7).
func (s *Shard) UpdateAttrsURL(url string, sales, praise, price uint32, category uint16) error {
	s.tabMu.RLock()
	id, ok := s.byURL[url]
	s.tabMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: url %q", ErrUnknownProduct, url)
	}
	s.fwd.SetSales(id, sales)
	s.fwd.SetPraise(id, praise)
	s.fwd.SetPrice(id, price)
	s.moveCategory(id, category)
	s.attrEpoch.Add(1)
	s.bump(func(st *Stats) { st.AttrUpdates++ })
	return nil
}

// UpdateAttrs atomically updates the numeric attributes — sales, praise,
// price and category — of every image of the product (Fig. 7). Unknown
// products return ErrUnknownProduct so the caller can decide whether the
// update was misrouted.
func (s *Shard) UpdateAttrs(productID uint64, sales, praise, price uint32, category uint16) (int, error) {
	s.tabMu.RLock()
	ids := s.byProduct[productID]
	s.tabMu.RUnlock()
	if len(ids) == 0 {
		return 0, fmt.Errorf("%w: %d", ErrUnknownProduct, productID)
	}
	for _, id := range ids {
		s.fwd.SetSales(id, sales)
		s.fwd.SetPraise(id, praise)
		s.fwd.SetPrice(id, price)
		s.moveCategory(id, category)
	}
	s.attrEpoch.Add(1)
	s.bump(func(st *Stats) { st.AttrUpdates++ })
	return len(ids), nil
}

// ProductImages returns the image IDs of a product (empty if unknown).
func (s *Shard) ProductImages(productID uint64) []core.ImageID {
	s.tabMu.RLock()
	defer s.tabMu.RUnlock()
	ids := s.byProduct[productID]
	out := make([]core.ImageID, len(ids))
	copy(out, ids)
	return out
}

// Valid reports whether image id is currently searchable.
func (s *Shard) Valid(id core.ImageID) bool { return s.valid.Get(id) }

// Attrs returns the forward-index record of image id.
func (s *Shard) Attrs(id core.ImageID) (core.Attrs, bool) { return s.fwd.Get(id) }

// Feature returns image id's feature row (nil if unknown). Callers must
// not modify it, and must keep the shard reachable while using it: with
// FeatureStoreMmap the slice points into a mapping that is unmapped when
// the shard is finalized or Closed.
//
//jdvs:pinned accessor returns the raw row; the doc contract above moves the pin to the caller
func (s *Shard) Feature(id core.ImageID) []float32 { return s.feats.Row(id) }

// searchScratch is the pooled per-query scratch: probe-selection buffers,
// one top-k selector per scan worker, and the scan's candidate set.
// Pooling keeps the hot path free of per-query allocations across serial
// and parallel scans.
type searchScratch struct {
	probe     []int
	probeDist []float32
	sels      []*topk.Selector
	merged    []topk.Item // scan output: unordered on the ADC path, sorted on the exact path
	counts    []int
	ids       [][]uint32  // per-worker id snapshots of the blocked 4-bit scan
	missing   []topk.Item // re-rank candidates whose raw row was unavailable
	adm       bitmapx.Words
	admCat    bitmapx.Words
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// lutPool pools ADC lookup tables separately from searchScratch: the
// batched path needs one live LUT per batch member — a variable number no
// single scratch field can serve — and sharing one pool between the
// single-query and batched paths keeps both allocation-free at steady
// state (visible in BenchmarkADCScan's allocs/op). Tables are stored as
// pointers so pool puts don't allocate, and BuildLUT grows a too-small
// table in place of the pooled slice.
var lutPool = sync.Pool{New: func() any { return new([]float32) }}

// ensureIDBufs guarantees n per-worker id buffers exist. Must run before
// scan workers fan out: workers index sc.ids[w] concurrently, so the
// slice header may not grow under them.
func (sc *searchScratch) ensureIDBufs(n int) {
	for len(sc.ids) < n {
		sc.ids = append(sc.ids, nil)
	}
}

// selectors returns n selectors reconfigured for capacity k.
func (sc *searchScratch) selectors(n, k int) []*topk.Selector {
	for len(sc.sels) < n {
		sc.sels = append(sc.sels, topk.New(k))
	}
	sels := sc.sels[:n]
	for _, sel := range sels {
		sel.ResetK(k)
	}
	return sels
}

// handOff copies sel's retained items, unordered, into sc.merged — the
// scan's candidate set. A copy, not an alias: the re-rank reconfigures
// the same pooled selector while it reads sc.merged.
func (sc *searchScratch) handOff(sel *topk.Selector) {
	sc.merged = append(sc.merged[:0], sel.Unordered()...)
}

// workerCounts returns n zeroed per-worker scanned counters.
func (sc *searchScratch) workerCounts(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	sc.counts = sc.counts[:n]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	return sc.counts
}

// Search scans the nprobe nearest inverted lists and returns the k nearest
// valid images with their attributes (§2.4); TopK is clamped to MaxTopK.
// Lock-free with respect to the real-time indexing writer. When the
// shard's SearchWorkers is above 1 the
// probed lists are striped across that many goroutines, each selecting a
// private top-k over its share, folded together at the end; results are
// identical to the serial scan.
//
// When a product quantizer is installed (TrainPQ / SetPQCodebook / a
// PQ-bearing snapshot) the scan scores ADC codes instead of float rows: a
// per-query lookup table turns each candidate into M byte-indexed table
// adds, the scan over-fetches RerankK candidates, and that short list is
// re-ranked exactly against the raw feature rows before the final top-k.
// Shards without a quantizer take the exact float path unchanged.
func (s *Shard) Search(req *core.SearchRequest) (*core.SearchResponse, error) {
	if s.codebook == nil {
		return nil, ErrNotTrained
	}
	if len(req.Feature) != s.cfg.Dim {
		return nil, fmt.Errorf("index: query dim %d, shard dim %d", len(req.Feature), s.cfg.Dim)
	}
	k := req.TopK
	if k <= 0 {
		k = 10
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	nprobe := req.NProbe
	if nprobe <= 0 {
		nprobe = s.cfg.DefaultNProbe
	}

	sc := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(sc)

	// Build the candidate-admission filter before probe selection: its
	// set-bit count prices the filter's selectivity, which may widen the
	// probe set (and the ADC re-rank depth, by the same factor) so that
	// selective filters still fill the result page.
	adm := s.buildAdmission(req, sc)
	rerankBoost := 1
	if adm.live == nil {
		s.filteredSearches.Add(1)
		if adm.matches == 0 && adm.exhaustive {
			// No committed row passes the filter; nothing to probe.
			return &core.SearchResponse{}, nil
		}
		widened := s.widenNProbe(nprobe, k, adm.matches)
		if widened > nprobe {
			rerankBoost = (widened + nprobe - 1) / nprobe
			nprobe = widened
		}
	}

	sc.probe, sc.probeDist = vecmath.TopCentroidsInto(
		sc.probe, sc.probeDist, req.Feature, s.codebook.Centroids, s.cfg.Dim, nprobe)
	lists := sc.probe

	workers := int(s.searchWorkers.Load())
	if workers > len(lists) {
		workers = len(lists)
	}
	if workers < 1 {
		workers = 1
	}

	// Pin the shard for the whole query: row slices handed out by a
	// disk-backed feature store point into mmap'd memory that the store's
	// finalizer unmaps once the shard is unreachable (e.g. hot-swapped out
	// mid-query). The receiver alone does not guarantee liveness across
	// the last row read under precise stack maps; the KeepAlive below
	// does.
	defer runtime.KeepAlive(s)

	var items []topk.Item
	scanned := 0
	if ps := s.pqState.Load(); ps != nil {
		items, scanned = s.searchADC(req, lists, workers, k, sc, ps, &adm, rerankBoost)
	} else {
		scanned = s.scanStriped(workers, k, sc, func(start, stride int, sel *topk.Selector) int {
			return s.scanLists(req, lists, start, stride, sel, &adm)
		})
		topk.Sort(sc.merged)
		items = sc.merged
	}

	return s.assembleResponse(items, scanned, len(lists)), nil
}

// assembleResponse joins the final ranked items with their forward-index
// attributes — the shared last step of Search and SearchBatch, so batched
// responses match unbatched ones field for field.
func (s *Shard) assembleResponse(items []topk.Item, scanned, probed int) *core.SearchResponse {
	resp := &core.SearchResponse{
		Hits:    make([]core.Hit, 0, len(items)),
		Scanned: scanned,
		Probed:  probed,
	}
	for _, it := range items {
		id := uint32(it.ID)
		a, ok := s.fwd.Get(id)
		if !ok {
			continue
		}
		resp.Hits = append(resp.Hits, core.Hit{
			Image:      core.ImageRef{Local: id},
			Dist:       it.Dist,
			ProductID:  a.ProductID,
			Sales:      a.Sales,
			Praise:     a.Praise,
			PriceCents: a.PriceCents,
			Category:   a.Category,
			URL:        a.URL,
		})
	}
	return resp
}

// scanLists scans every probed list whose index ≡ start (mod stride),
// pushing admitted candidates into sel, and returns how many it scanned.
// Striding interleaves the (distance-ordered, unevenly sized) lists across
// workers for balanced shares. Validity, category scope and attribute
// predicates are all decided by the admission filter — a single word test
// on the pre-intersected bitmap for filtered queries, a validity-bit read
// otherwise.
func (s *Shard) scanLists(req *core.SearchRequest, lists []int, start, stride int, sel *topk.Selector, adm *admission) int {
	// Search pins the shard for the whole query, but workers run this on
	// their own goroutines; pin here too so the row reads stay covered no
	// matter who calls.
	defer runtime.KeepAlive(s)
	scanned := 0
	scan := func(id uint32) bool {
		if !adm.admit(id) {
			return true // off-market or filtered out (§2.2 validity, scope, predicates)
		}
		row := s.feats.Row(id)
		if row == nil {
			return true
		}
		scanned++
		sel.Push(uint64(id), vecmath.L2Squared(req.Feature, row))
		return true
	}
	for i := start; i < len(lists); i += stride {
		s.inv.Scan(lists[i], scan)
	}
	return scanned
}

// Per-bit-width default ADC over-fetch multipliers (RerankK = mul×TopK
// when the knob is unset), from the measured sweep on the 100k image /
// dim 64 / nprobe 8 corpus of ~195-image near-duplicate motifs recorded
// in docs/OPERATIONS.md (re-run: JDVS_RERANK_SWEEP=1 go test
// ./internal/index/ -run TestRerankSweep -v). The sweep's finding: at
// production corpus-to-codebook ratios the depth that matters is the one
// that covers the query's near-duplicate group — both widths climb the
// same curve and pass recall@10 0.99 at mul=20 (8-bit 0.9915, 4-bit
// 0.9930), saturating at 1.0 by mul=30. 8-bit defaults to that knee; the
// 16-centroid 4-bit quantizer gets the full-saturation depth as margin
// for corpora fine-grained enough for codebook resolution to matter —
// which its cheaper scan more than pays for (969µs/query vs the 8-bit
// default's 1.40ms on the sweep corpus).
const (
	defaultRerankMul8 = 20
	defaultRerankMul4 = 30
)

// rerankDepth derives the ADC over-fetch depth for one query under the
// installed quantizer's bit width.
func (s *Shard) rerankDepth(k, bits int) int {
	mul := defaultRerankMul8
	if bits == 4 {
		mul = defaultRerankMul4
	}
	r := mul * k
	if s.cfg.RerankK > 0 {
		r = s.cfg.RerankK
	}
	if r < k {
		r = k
	}
	if r > MaxTopK {
		r = MaxTopK
	}
	return r
}

// scanStriped runs scan(start, stride, sel) striped across the workers —
// the §2.4 multi-thread fan-out shared by the exact and ADC paths — and
// leaves the best-k candidates, unordered, in sc.merged, returning the
// total candidates scored. Workers 1..n are folded into worker 0's
// selector by pushing their items: a selector's retained set is a pure
// function of the candidate multiset, so the fold keeps exactly the set a
// serial scan would, with no per-worker sort or merge. scan must be safe
// for concurrent calls with distinct (start, sel) pairs.
func (s *Shard) scanStriped(workers, k int, sc *searchScratch, scan func(start, stride int, sel *topk.Selector) int) int {
	sels := sc.selectors(workers, k)
	if workers == 1 {
		n := scan(0, 1, sels[0])
		sc.handOff(sels[0])
		return n
	}
	counts := sc.workerCounts(workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = scan(w, workers, sels[w])
		}(w)
	}
	// Worker 0 runs on the calling goroutine.
	counts[0] = scan(0, workers, sels[0])
	wg.Wait()
	scanned := counts[0]
	for w := 1; w < workers; w++ {
		scanned += counts[w]
		for _, it := range sels[w].Unordered() {
			sels[0].Push(it.ID, it.Dist)
		}
	}
	sc.handOff(sels[0])
	return scanned
}

// searchADC is the product-quantized scan: build the query's ADC lookup
// table, select the rerankDepth approximate-nearest candidates over the
// probed lists (striped across workers exactly like the exact scan), then
// re-rank that short list against the raw feature rows and keep the exact
// top k. Returns the final items and the number of candidates scored.
func (s *Shard) searchADC(req *core.SearchRequest, lists []int, workers, k int, sc *searchScratch, ps *shardPQ, adm *admission, rerankBoost int) ([]topk.Item, int) {
	// The exact re-rank reads raw rows; keep the mmap mapping alive for
	// the duration (see Search).
	defer runtime.KeepAlive(s)
	// Dimensions were validated against the shard config, and the codebook
	// was validated against the shard at install time, so BuildLUT cannot
	// fail here.
	lutp := lutPool.Get().(*[]float32)
	defer lutPool.Put(lutp)
	*lutp, _ = ps.cb.BuildLUT(req.Feature, *lutp)
	lut := *lutp
	rerankK := s.widenRerank(s.rerankDepth(k, ps.cb.Bits), rerankBoost)
	var scanned int
	if ps.lists != nil {
		sc.ensureIDBufs(workers)
		scanned = s.scanStriped(workers, rerankK, sc, func(start, stride int, sel *topk.Selector) int {
			return s.scanListsADC4(lists, start, stride, sel, ps, lut, adm, sc)
		})
	} else {
		scanned = s.scanStriped(workers, rerankK, sc, func(start, stride int, sel *topk.Selector) int {
			return s.scanListsADC(req, lists, start, stride, sel, ps, lut, adm)
		})
	}
	return s.rerankExact(req, k, sc, adm), scanned
}

// rerankExact re-ranks the ADC-selected candidate set in sc.merged (in
// no particular order) exactly against the raw feature rows and returns
// the final top k, sorted — the shared last stage of the single-query and
// batched ADC paths.
func (s *Shard) rerankExact(req *core.SearchRequest, k int, sc *searchScratch, adm *admission) []topk.Item {
	// Raw row reads below; keep the mmap mapping alive (see Search).
	defer runtime.KeepAlive(s)
	// The candidates are safely copied into sc.merged, so the pooled
	// selectors can be reconfigured for the final top-k.
	sel := sc.selectors(1, k)[0]
	ranked := 0
	missing := sc.missing[:0]
	for _, it := range sc.merged {
		row := s.feats.Row(uint32(it.ID))
		if row == nil {
			// The raw row is unavailable (it was scannable by code, so
			// this is a store-level gap, not an invalid image). Dropping
			// it silently could return fewer than k results even though
			// the shard holds ≥ k valid images; remember it for backfill.
			missing = append(missing, it)
			continue
		}
		ranked++
		sel.Push(it.ID, vecmath.L2Squared(req.Feature, row))
	}
	if ranked < k {
		// Backfill from the next approximate candidates, best ADC
		// estimate first: it is the best score available for a row the
		// store cannot produce. The candidate set is unordered, so the
		// missing rows are put in (Dist, ID) order here — only on this
		// rare path. Only the shortfall is filled, so an approximate score
		// never displaces an exact one when k exact candidates exist.
		topk.Sort(missing)
		for _, it := range missing {
			if ranked == k {
				break
			}
			// Re-check admission before backfilling: the scan admitted this
			// candidate, but it may have been delisted or drifted out of the
			// filter between the scan and the re-rank, and unlike the exact
			// branch this one reads nothing else that would catch it.
			if !adm.admit(uint32(it.ID)) {
				continue
			}
			ranked++
			sel.Push(it.ID, it.Dist)
		}
	}
	sc.missing = missing[:0]
	return sel.Sorted()
}

// scanListsADC is scanLists scoring PQ codes through the query's lookup
// table instead of float rows: M byte-indexed adds per candidate instead
// of Dim float subtract-multiply-adds over a Dim×4-byte row.
func (s *Shard) scanListsADC(req *core.SearchRequest, lists []int, start, stride int, sel *topk.Selector, ps *shardPQ, lut []float32, adm *admission) int {
	scanned := 0
	scan := func(id uint32) bool {
		if !adm.admit(id) {
			return true // off-market or filtered out (§2.2 validity, scope, predicates)
		}
		code := ps.codes.Row(id)
		if code == nil {
			return true
		}
		scanned++
		sel.Push(uint64(id), pq.ADCDist(lut, code))
		return true
	}
	for i := start; i < len(lists); i += stride {
		s.inv.Scan(lists[i], scan)
	}
	return scanned
}

// scanListsADC4 is the 4-bit fast-scan list walk: snapshot the list's
// published ids (insertion order, which by the codeBlocks contract is
// slot order), stream its full code blocks through the gather kernel, and
// score the partially filled tail block per slot. Distances come first
// and admission second — the reverse of the 8-bit path — because the
// blocked kernel scores 32 candidates in one sweep for less than the cost
// of 32 admission reads, and the current-worst threshold then discards
// most candidates before any admission word is touched. The scanned count
// is therefore "codes scored" (every published code in the probed lists),
// not "candidates admitted" as on the 8-bit path; the batched path counts
// identically, so batched and unbatched responses match field for field.
//
// The slice of per-worker id buffers is indexed by start: scanStriped
// hands worker w the stripe starting at w (and 0 on the serial path), and
// sc.ensureIDBufs ran before the fan-out.
func (s *Shard) scanListsADC4(lists []int, start, stride int, sel *topk.Selector, ps *shardPQ, lut []float32, adm *admission, sc *searchScratch) int {
	mb := ps.cb.CodeBytes()
	var dists [pq.BlockCodes]float32
	ids := sc.ids[start][:0]
	scanned := 0
	for i := start; i < len(lists); i += stride {
		l := lists[i]
		ids = ids[:0]
		s.inv.Scan(l, func(id uint32) bool { ids = append(ids, id); return true })
		scanned += len(ids)
		blocks := ps.lists[l]
		full := len(ids) / pq.BlockCodes
		for b := 0; b < full; b++ {
			pq.ScanBlock4(lut, blocks.block(b), mb, &dists)
			worst, bounded := sel.WorstDist()
			base := b * pq.BlockCodes
			for sl, d := range dists {
				// Skipping on d > worst never changes the result — the
				// selector would reject the push — it only skips the
				// admission read, so batched/unbatched/serial/parallel
				// scans still select identical candidates.
				if bounded && d > worst {
					continue
				}
				id := ids[base+sl]
				if !adm.admit(id) {
					continue
				}
				if sel.Push(uint64(id), d) {
					worst, bounded = sel.WorstDist()
				}
			}
		}
		if tail := len(ids) % pq.BlockCodes; tail > 0 {
			// The tail block has unpublished slots whose lane bytes the
			// writer may still be filling; the per-slot scalar path reads
			// only published slots' bytes (bit-identical to the kernel).
			blk := blocks.block(full)
			base := full * pq.BlockCodes
			for sl := 0; sl < tail; sl++ {
				d := pq.ADCDistBlockSlot(lut, blk, mb, sl)
				id := ids[base+sl]
				if !adm.admit(id) {
					continue
				}
				sel.Push(uint64(id), d)
			}
		}
	}
	sc.ids[start] = ids
	return scanned
}

// Stats returns a snapshot of shard counters.
func (s *Shard) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Images = s.fwd.Len()
	st.ValidImages = s.valid.Count()
	st.FilteredSearches = s.filteredSearches.Load()
	st.Lists = s.inv.Lists()
	st.FeatureHeapBytes = s.feats.heapBytes()
	if ps := s.pqState.Load(); ps != nil {
		st.PQCodes = ps.codeCount()
		st.PQBits = 8
		if ps.cb.Bits == 4 {
			st.PQBits = 4
		}
		st.PQCodeBytes = ps.codeHeapBytes()
	}
	s.tabMu.RLock()
	st.Products = len(s.byProduct)
	s.tabMu.RUnlock()
	return st
}

func (s *Shard) bump(fn func(*Stats)) {
	s.statsMu.Lock()
	fn(&s.stats)
	s.statsMu.Unlock()
}

// snapshot format identifiers. Version 1 ends after the feature matrix;
// version 2 adds an 8-byte covered queue offset after the version byte and
// a trailing PQ section ([1B present] + PQ codebook + code matrix);
// version 3 inserts a bit-width byte after the present flag ([1B present]
// [1B bits] + codebook + codes) so 4-bit quantizers serialise — 8-bit
// codes keep the v2 code-matrix layout, 4-bit codes serialise per
// inverted list (writeCodeBlockLists). Older streams still load: v1
// installs no quantizer (the shard serves the exact float path until
// TrainPQ/TrainPQStored re-encodes it) and v2's missing bits byte reads
// as 8.
const (
	snapMagic     = "JDVSSNAP"
	snapVersionV1 = 1
	snapVersionV2 = 2
	snapVersion   = 3
)

// WriteSnapshot serialises the full shard (covered offset, codebook,
// forward, inverted, bitmap, features, PQ codebook + codes when
// installed). The real-time writer must be quiesced.
func (s *Shard) WriteSnapshot(w io.Writer) error {
	if s.codebook == nil {
		return ErrNotTrained
	}
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{snapVersion}); err != nil {
		return err
	}
	var off [8]byte
	binary.LittleEndian.PutUint64(off[:], uint64(s.coveredOffset.Load()))
	if _, err := w.Write(off[:]); err != nil {
		return err
	}
	if err := writeCodebook(w, s.codebook); err != nil {
		return fmt.Errorf("index: snapshot codebook: %w", err)
	}
	if _, err := s.fwd.WriteTo(w); err != nil {
		return fmt.Errorf("index: snapshot forward: %w", err)
	}
	if _, err := s.inv.WriteTo(w); err != nil {
		return fmt.Errorf("index: snapshot inverted: %w", err)
	}
	if err := writeBitmap(w, s.valid); err != nil {
		return fmt.Errorf("index: snapshot bitmap: %w", err)
	}
	if _, err := s.feats.writeTo(w); err != nil {
		return fmt.Errorf("index: snapshot features: %w", err)
	}
	ps := s.pqState.Load()
	if ps == nil {
		if _, err := w.Write([]byte{0}); err != nil {
			return err
		}
		return nil
	}
	bits := byte(8)
	if ps.cb.Bits == 4 {
		bits = 4
	}
	if _, err := w.Write([]byte{1, bits}); err != nil {
		return err
	}
	if err := writePQCodebook(w, ps.cb); err != nil {
		return fmt.Errorf("index: snapshot pq codebook: %w", err)
	}
	if ps.codes != nil {
		if _, err := ps.codes.writeTo(w); err != nil {
			return fmt.Errorf("index: snapshot pq codes: %w", err)
		}
	} else if err := writeCodeBlockLists(w, ps.lists, ps.cb.CodeBytes()); err != nil {
		return fmt.Errorf("index: snapshot pq code lists: %w", err)
	}
	return nil
}

// LoadSnapshot replaces the shard contents from a WriteSnapshot stream and
// rebuilds the lookup tables from the forward index. Readers and the
// writer must be quiesced. The current v3 layout (bit-width-tagged PQ),
// the v2 layout (always-8-bit PQ) and the legacy v1 layout are all
// accepted.
func (s *Shard) LoadSnapshot(r io.Reader) error {
	magic := make([]byte, len(snapMagic)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("index: snapshot header: %w", err)
	}
	if string(magic[:len(snapMagic)]) != snapMagic {
		return errors.New("index: bad snapshot magic")
	}
	version := magic[len(snapMagic)]
	if version != snapVersionV1 && version != snapVersionV2 && version != snapVersion {
		return fmt.Errorf("index: unsupported snapshot version %d", version)
	}
	covered := int64(0)
	if version >= snapVersionV2 {
		var off [8]byte
		if _, err := io.ReadFull(r, off[:]); err != nil {
			return fmt.Errorf("index: snapshot covered offset: %w", err)
		}
		covered = int64(binary.LittleEndian.Uint64(off[:]))
		if covered < 0 {
			return fmt.Errorf("index: corrupt snapshot covered offset %d", covered)
		}
	}
	cb, err := readCodebook(r)
	if err != nil {
		return fmt.Errorf("index: snapshot codebook: %w", err)
	}
	if err := s.SetCodebook(cb); err != nil {
		return err
	}
	if _, err := s.fwd.ReadFrom(r); err != nil {
		return fmt.Errorf("index: snapshot forward: %w", err)
	}
	if _, err := s.inv.ReadFrom(r); err != nil {
		return fmt.Errorf("index: snapshot inverted: %w", err)
	}
	if err := readBitmap(r, s.valid); err != nil {
		return fmt.Errorf("index: snapshot bitmap: %w", err)
	}
	if _, err := s.feats.readFrom(r); err != nil {
		return fmt.Errorf("index: snapshot features: %w", err)
	}
	var fresh *shardPQ
	if version >= snapVersionV2 {
		var flag [1]byte
		if _, err := io.ReadFull(r, flag[:]); err != nil {
			return fmt.Errorf("index: snapshot pq flag: %w", err)
		}
		if flag[0] == 1 {
			// v2 has no bit-width byte: its codes are always 8-bit.
			bits := 8
			if version >= snapVersion {
				var bb [1]byte
				if _, err := io.ReadFull(r, bb[:]); err != nil {
					return fmt.Errorf("index: snapshot pq bits: %w", err)
				}
				if bb[0] != 4 && bb[0] != 8 {
					return fmt.Errorf("index: corrupt snapshot pq bits %d", bb[0])
				}
				bits = int(bb[0])
			}
			pcb, err := readPQCodebook(r, bits)
			if err != nil {
				return fmt.Errorf("index: snapshot pq codebook: %w", err)
			}
			if pcb.Dim != s.cfg.Dim {
				return fmt.Errorf("index: snapshot pq dim %d, shard dim %d", pcb.Dim, s.cfg.Dim)
			}
			if bits == 4 {
				lists, err := readCodeBlockLists(r, s.cfg.NLists, pcb.CodeBytes())
				if err != nil {
					return fmt.Errorf("index: snapshot pq code lists: %w", err)
				}
				// Slot alignment is the 4-bit scan's correctness condition:
				// every list's code count must match its inverted length,
				// and (with each row in exactly one list) the total must
				// match the feature rows, mirroring the 8-bit row check.
				total := 0
				for l, cb := range lists {
					if int(cb.published()) != s.inv.ListLen(l) {
						return fmt.Errorf("index: snapshot pq list %d has %d codes, inverted %d entries",
							l, cb.published(), s.inv.ListLen(l))
					}
					total += int(cb.published())
				}
				if total != s.feats.Len() {
					return fmt.Errorf("index: snapshot pq codes %d, features %d", total, s.feats.Len())
				}
				fresh = &shardPQ{cb: pcb, lists: lists}
			} else {
				codes := newCodeMat(pcb.M)
				if _, err := codes.readFrom(r); err != nil {
					return fmt.Errorf("index: snapshot pq codes: %w", err)
				}
				if codes.Len() != s.feats.Len() {
					return fmt.Errorf("index: snapshot pq codes %d rows, features %d", codes.Len(), s.feats.Len())
				}
				fresh = &shardPQ{cb: pcb, codes: codes}
			}
		} else if flag[0] != 0 {
			return fmt.Errorf("index: corrupt snapshot pq flag %d", flag[0])
		}
	}
	s.pqState.Store(fresh)
	// Rebuild the per-category bitmaps from the forward records. Stale
	// generations (tombstoned by feature refreshes) keep their bits — their
	// validity bit is 0, and admission intersects with validity — so a
	// snapshot-loaded replica filters identically to the shard that wrote
	// it. The snapshot's attributes also replace whatever the predicate
	// cache was built against.
	catsDir := []*bitmapx.Bitmap{}
	for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
		_, _, _, cat, ok := s.fwd.Numeric(id)
		if !ok {
			continue
		}
		for int(cat) >= len(catsDir) {
			catsDir = append(catsDir, nil)
		}
		if catsDir[cat] == nil {
			catsDir[cat] = bitmapx.New(0)
		}
		catsDir[cat].Set(id)
	}
	s.cats.Store(&catsDir)
	s.attrEpoch.Add(1)
	s.predCache.Store(nil)
	// Rebuild lookup tables from the forward index. Two passes: byURL
	// first (ascending scan, so the newest generation of a re-listed URL
	// wins), then byProduct from only the records byURL still points at —
	// a stale generation tombstoned by a feature refresh must not
	// resurface as a product member on a snapshot-loaded replica, or
	// ProductImages/UpdateAttrs would diverge from the shard that wrote
	// the snapshot. (Images merely delisted keep their byProduct entries:
	// their URL still maps to them, and they can be re-listed.)
	byURL := make(map[string]core.ImageID, s.fwd.Len())
	byProduct := make(map[uint64][]core.ImageID)
	for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
		a, ok := s.fwd.Get(id)
		if !ok || a.URL == "" {
			continue
		}
		byURL[a.URL] = id
	}
	for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
		a, ok := s.fwd.Get(id)
		if !ok {
			continue
		}
		if a.URL != "" && byURL[a.URL] != id {
			continue // superseded by a feature-refresh generation
		}
		byProduct[a.ProductID] = append(byProduct[a.ProductID], id)
	}
	s.tabMu.Lock()
	s.byURL = byURL
	s.byProduct = byProduct
	s.tabMu.Unlock()
	// The watermark goes last: it claims the shard covers the queue up to
	// `covered`, so every structure backing that claim must already be
	// installed when a concurrent CoveredOffset call observes it.
	s.coveredOffset.Store(covered)
	return nil
}
