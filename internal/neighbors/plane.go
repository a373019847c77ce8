package neighbors

import (
	"context"
	"fmt"
	"sync"

	"anex/internal/failpoint"
	"anex/internal/memo"
)

// The neighbourhood plane deduplicates kNN work ACROSS detectors. The
// paper's grids pair three kNN-based detectors (LOF k=15, FastABOD k=10,
// kNN-dist k=10) with four explainers over the same datasets, and every
// one of those pipelines queries identical subspace views — so the same
// neighbourhood structure used to be computed up to three times per grid
// (once per private engine) and once more per uncached view re-visit. The
// plane computes each view's structure exactly once for all detectors
// wired to it. Every plane has one owner that builds it and passes it in:
// a detector constructor (a plane of its own), a grid, an experiment
// session or an anexd engine. A stream monitor works on its detector's.
//
//   - Queries are keyed by (dataset source key, subspace key): dataset IDs
//     are process-unique (dataset.Dataset.ID), so one plane can serve any
//     number of datasets without name collisions.
//   - The one computation runs at k = kmax, the maximum neighbourhood size
//     across registered consumers (15 with the paper's detectors). Cheaper
//     k are answered by PREFIX SLICING: every path builds its lists with
//     the one insert (insertNeighbor), so entries are totally ordered by
//     (squared distance, index) everywhere and the k-nearest list is a
//     strict prefix of the kmax-nearest list, bit for bit. The contract is
//     pinned by TestPlanePrefixSlicingProperty.
//   - Concurrent misses on one key are deduplicated singleflight-style
//     (one leader computes, waiters share the result), and resident
//     entries live in a byte-budgeted LRU — the internal/memo cache that
//     also backs detector.Cached.
//
// Computation itself takes the delta path (delta.go) for the
// low-dimensional views it accepts and falls back to the standard index
// path (KD-tree or brute force, flat layout via AllKNNFlat) for everything
// else — which means full-space and large views are cached across
// detectors too, a path the per-detector engines never covered. The
// per-dataset structures both paths share (sort orders, full-space seeds)
// live in a second memo cache beside the view entries, under the same
// byte budget and the same Forget.

// DefaultPlaneBytes bounds a plane's resident neighbourhood entries. A
// grid cell's 2d sweep over a 100-feature dataset holds C(100,2) = 4950
// views; at n = 1000, kmax = 15 each entry costs ~180 KB, so the default
// admits roughly 1.5 such sweeps before LRU eviction.
const DefaultPlaneBytes = 256 << 20

// SitePlanePublish is the failpoint site guarding plane publication, read
// from the computing leader's context (failpoint.From): an armed error
// action makes the leader fail before any kNN work, so waiters observe the
// injected error through the plane's normal error path (and, per its
// singleflight contract, the next query retries).
const SitePlanePublish = "plane.publish"

// Plane is a shared neighbourhood cache. The zero value is not usable;
// construct with NewPlane. A nil *Plane is a valid "disabled" plane:
// AllKNN reports ok=false and callers fall back to their private path.
type Plane struct {
	cache   *memo.Cache[planeEntry]
	sources *memo.Cache[sourceEntry] // per-dataset structures (delta.go)

	mu        sync.Mutex
	kmax      int
	publishes int
	delta     DeltaStats
	prune     PruneStats
}

// planeEntry is one resident neighbourhood structure, computed at
// neighbourhood size k (m = min(k, n−1) actual neighbours per point).
type planeEntry struct {
	k, m int
	idx  []int32   // n×m row-major neighbour indices
	dist []float64 // n×m Euclidean distances, ascending, index tie-broken
}

// PlaneStats is a point-in-time snapshot of the plane's activity,
// mirroring detector.CacheStats.
type PlaneStats struct {
	// Queries counts AllKNN calls the plane accepted; Hits of those were
	// answered from a resident entry or by waiting on another caller's
	// in-flight computation (no kNN work either way).
	Queries, Hits int
	// Computations counts actual kNN builds — the denominator of the
	// dedup factor.
	Computations int
	// Upgrades counts entries recomputed because kmax rose after they
	// were built (a consumer with a larger k registered late).
	Upgrades int
	// Evictions counts entries dropped to honour the byte budget.
	Evictions int
	// Forgets counts entries dropped by Forget calls (a dataset's owner
	// declaring its cache entries dead, e.g. an expired stream window).
	Forgets int
	// Publishes counts entries installed ready-made by Publish (the stream
	// monitor's incrementally maintained windows): queries they absorb are
	// hits that cost no computation at all.
	Publishes int
	// Entries is the number of resident neighbourhood structures.
	Entries int
	// ResidentBytes is the budget charge of the resident entries; it
	// never exceeds MaxBytes.
	ResidentBytes int64
	// MaxBytes is the configured budget.
	MaxBytes int64
	// KMax is the neighbourhood size all computations run at.
	KMax int
	// Delta is the delta path's activity (the plane's compute path for
	// low-dimensional views).
	Delta DeltaStats
	// Prune aggregates the quantized prefilter's activity across this
	// plane's computations (wide views answered by the coded brute-force
	// index): code builds and the candidate scan/reject split.
	Prune PruneStats
}

// DedupFactor reports how many queries each actual computation served:
// queries ÷ computations. A factor of 1 means no sharing engaged; the
// paper's three-detector grids sit well above 1.5. Zero computations
// (nothing ever queried, or everything answered from cache warmed
// elsewhere) reports the query count itself, or 1 for an idle plane.
func (s PlaneStats) DedupFactor() float64 {
	if s.Computations == 0 {
		if s.Queries == 0 {
			return 1
		}
		return float64(s.Queries)
	}
	return float64(s.Queries) / float64(s.Computations)
}

func (s PlaneStats) String() string {
	return fmt.Sprintf("queries %d, hits %d, computations %d (dedup %.2f×), upgrades %d, evictions %d, resident %d/%d MiB in %d entries, kmax %d",
		s.Queries, s.Hits, s.Computations, s.DedupFactor(), s.Upgrades, s.Evictions,
		s.ResidentBytes>>20, s.MaxBytes>>20, s.Entries, s.KMax)
}

// NewPlane returns a plane whose resident per-view entries are bounded by
// maxBytes (≤ 0 → DefaultPlaneBytes), and so are its per-dataset
// structures (sort orders, full-space seeds), in a cache of their own.
func NewPlane(maxBytes int64) *Plane {
	if maxBytes <= 0 {
		maxBytes = DefaultPlaneBytes
	}
	size := func(en planeEntry) int64 { return int64(len(en.idx))*4 + int64(len(en.dist))*8 }
	return &Plane{cache: memo.New(maxBytes, size), sources: memo.New(maxBytes, sourceEntry.bytes)}
}

// RegisterK declares a consumer's neighbourhood size. kmax only ever
// grows; all subsequent computations run at the new maximum, and resident
// entries computed at a smaller k are transparently recomputed on next
// access (counted as Upgrades). Registering before the first query — the
// detector constructors and SetNeighbors do — avoids those recomputes
// entirely. Safe on a nil plane.
func (p *Plane) RegisterK(k int) {
	if p != nil {
		p.registerK(k)
	}
}

// registerK raises kmax to at least k and returns the resulting kmax.
func (p *Plane) registerK(k int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k > p.kmax {
		p.kmax = k
	}
	return p.kmax
}

// KMax returns the current registered maximum neighbourhood size.
func (p *Plane) KMax() int {
	if p == nil {
		return 0
	}
	return p.registerK(0)
}

// Stats returns the plane's activity counters.
func (p *Plane) Stats() PlaneStats {
	if p == nil {
		return PlaneStats{}
	}
	c := p.cache.Stats()
	s := PlaneStats{
		Queries:       c.Calls,
		Hits:          c.Hits,
		Computations:  c.Computations,
		Upgrades:      c.Stale,
		Evictions:     c.Evictions,
		Forgets:       c.Forgets,
		Entries:       c.Entries,
		ResidentBytes: c.Bytes,
		MaxBytes:      c.MaxBytes,
	}
	p.mu.Lock()
	s.Publishes, s.KMax, s.Delta, s.Prune = p.publishes, p.kmax, p.delta, p.prune
	p.mu.Unlock()
	return s
}

// Forget drops every resident entry belonging to the dataset identified by
// sourceKey (dataset.Dataset.SourceKey), its per-dataset structures
// included. Short-lived datasets — the stream monitor's sliding windows —
// carry process-unique IDs, so once their owner is done with them their
// entries are unreachable garbage that would otherwise linger until LRU
// pressure; Forget releases them eagerly. Entries for other datasets and
// computations in flight are untouched (an in-flight leader republishes
// after Forget returns; that entry dies with the next Forget or under LRU
// pressure). Safe on a nil plane and when sourceKey has no entries.
func (p *Plane) Forget(sourceKey string) {
	if p == nil || sourceKey == "" {
		return
	}
	p.cache.Forget(sourceKey + "|")
	p.sources.Forget(sourceKey + "|")
}

// Publish installs a ready-made neighbourhood entry for src, computed at
// neighbourhood size k with m valid neighbours per row (row stride m, the
// layout Plane.AllKNN serves). The caller asserts the arrays are
// bit-identical to what the plane would compute for the same view — the
// WindowEngine's contract — and transfers their ownership: the plane keeps
// them unmutated and serves them to every consumer with k' ≤ k by prefix
// slicing. A resident entry at least as deep under the same key wins;
// queries deeper than k trigger the normal upgrade recompute, so a
// too-shallow publish degrades to the cold path instead of corrupting
// anything. Safe (a no-op) on a nil plane and degenerate input.
func (p *Plane) Publish(src ColumnSource, k, m int, idx []int32, dist []float64) {
	if p == nil || k < 1 || m < 1 || src.N() < 2 {
		return
	}
	n := src.N()
	if len(idx) != n*m || len(dist) != n*m {
		return
	}
	p.mu.Lock()
	if k > p.kmax {
		// A published entry is as good as a registration: later queries at
		// any k' ≤ k must not trigger an upgrade recompute of this entry.
		p.kmax = k
	}
	p.publishes++
	p.mu.Unlock()
	p.cache.Put(src.CacheKey(), planeEntry{k: k, m: m, idx: idx, dist: dist},
		func(en planeEntry) bool { return en.k >= k })
}

// AllKNN answers the all-points k-nearest-neighbour query for the view
// from the plane's cache, computing it once (at kmax) on first access. The
// returned arrays are row-major with row stride `stride` and m =
// min(k, n−1) valid neighbours per row: point i's neighbours are
// idx[i*stride : i*stride+m] with Euclidean distances in the matching dist
// slots, ascending, index tie-broken — the first m entries of each
// kmax-row, bit-identical to computing at k directly (the prefix-slicing
// contract). The arrays are shared cache state and must not be mutated.
//
// ok reports whether the plane handled the query: false only on a nil
// plane or a degenerate query (k < 1 or fewer than two points), in which
// case the caller falls back to its private path. Errors are context
// cancellation (or a failed inner computation) and mean the query must be
// abandoned, not retried on the fallback path.
func (p *Plane) AllKNN(ctx context.Context, src ColumnSource, k, workers int) (idx []int32, dist []float64, m, stride int, ok bool, err error) {
	if p == nil {
		return nil, nil, 0, 0, false, nil
	}
	n := src.N()
	if k < 1 || n < 2 {
		return nil, nil, 0, 0, false, nil
	}
	// kmax is read once, up front: a leader elected by this call computes
	// at it. An entry shallower than this request (resident, or a leader's
	// that started before a deeper consumer registered) is rebuilt.
	kq := p.registerK(k)
	en, err := p.cache.Get(ctx, src.CacheKey(),
		func(en planeEntry) bool { return en.k >= k || en.m >= n-1 },
		func(ctx context.Context) (planeEntry, error) { return p.compute(ctx, src, kq, workers) })
	if err != nil {
		return nil, nil, 0, 0, true, err
	}
	return en.idx, en.dist, min(k, en.m), en.m, true, nil
}

// compute builds the flat neighbourhood structure at neighbourhood size
// kq: through the delta path for the low-dimensional views it accepts,
// through the standard index (AllKNNFlat over NewIndex) otherwise. Both
// paths produce bit-identical values in the same layout.
func (p *Plane) compute(ctx context.Context, src ColumnSource, kq, workers int) (planeEntry, error) {
	if err := failpoint.From(ctx).Eval(SitePlanePublish); err != nil {
		return planeEntry{}, err
	}
	idx, dist, m, ok, err := p.deltaKNN(ctx, src, kq, workers)
	if err == nil && !ok {
		idx, dist, m, err = indexKNN(ctx, p, src, kq, workers)
	}
	if err != nil {
		return planeEntry{}, err
	}
	return planeEntry{k: kq, m: m, idx: idx, dist: dist}, nil
}

// indexKNN answers src's all-points kNN through the standard index
// (AllKNNFlat over NewIndex). With a plane, a coded scan over a subspace
// view starts from the source's full-space neighbours — the seeds the
// delta scan reads too, built once per source and k — and the index's
// prefilter counters are folded into the plane's PruneStats: the codes
// were built, and every query answered, for exactly this entry. p may be
// nil (no seeds, no ledger).
func indexKNN(ctx context.Context, p *Plane, src ColumnSource, k, workers int) (idx []int32, dist []float64, m int, err error) {
	ix := NewIndex(sourceRows(src))
	bf, _ := ix.(bruteForce)
	coded := p != nil && bf.codes != nil
	if coded && src.Dim() < src.NumFeatures() {
		if bf.codes.seeds, err = p.fullSpaceKNN(ctx, src, k, workers); err != nil {
			return nil, nil, 0, err
		}
	}
	idx, dist, m, err = AllKNNFlat(ctx, ix, k, workers)
	if err == nil && coded {
		p.mu.Lock()
		p.prune = p.prune.add(bf.pruneStats())
		p.mu.Unlock()
	}
	return idx, dist, m, err
}

// AllKNNOrIndex answers src's all-points kNN through the plane when the
// plane accepts the query, falling back to a private standard index (the
// same tier choice NewIndex applies everywhere) otherwise — the one
// shared neighbourhood phase behind all three kNN detectors. The returned
// arrays follow Plane.AllKNN's stride contract and must not be mutated.
func AllKNNOrIndex(ctx context.Context, p *Plane, src ColumnSource, k, workers int) (idx []int32, dist []float64, m, stride int, err error) {
	idx, dist, m, stride, ok, err := p.AllKNN(ctx, src, k, workers)
	if err != nil || ok {
		return idx, dist, m, stride, err
	}
	idx, dist, m, err = indexKNN(ctx, nil, src, k, workers)
	return idx, dist, m, m, err
}

// RowSource is the optional row-major access a ColumnSource may provide;
// dataset.View does, and the plane's fallback path uses it so a view that
// was (or will be) materialised anyway is not gathered twice.
type RowSource interface {
	Points() [][]float64
}

// sourceRows returns the source's row-major points, gathering them from
// the columns (ascending feature order, one flat backing array — exactly
// dataset.View's layout, so distances come out bit-identical) when the
// source does not expose rows itself.
func sourceRows(src ColumnSource) [][]float64 {
	if rs, ok := src.(RowSource); ok {
		return rs.Points()
	}
	return gatherRows(src.N(), src.Dim(), src.Column)
}

// gatherRows gathers n row-major points from d columns, column(j) the j-th,
// into one flat backing array.
func gatherRows(n, d int, column func(j int) []float64) [][]float64 {
	flat := make([]float64, n*d)
	rows := make([][]float64, n)
	for j := 0; j < d; j++ {
		col := column(j)
		for i := 0; i < n; i++ {
			flat[i*d+j] = col[i]
		}
	}
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return rows
}
