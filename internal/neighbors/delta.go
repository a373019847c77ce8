package neighbors

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"

	"anex/internal/memo"
	"anex/internal/parallel"
)

// The delta engine answers AllKNN queries over low-dimensional subspace
// views by exploiting the structure of staged subspace search instead of
// building a fresh spatial index per view:
//
//   - Squared Euclidean distance decomposes additively over dimensions, so
//     the distance between two points in any SUB-subspace lower-bounds their
//     distance in the full subspace. A single sorted dimension therefore
//     yields a sweep order in which candidates can be abandoned as soon as
//     the one-dimensional gap alone exceeds the current k-th distance.
//   - A parent subspace's kNN, resident in the plane that owns the engine,
//     seeds the child query S ∪ {f}: adding only the one-dimension
//     component (a_f − b_f)² to the squared parent distances gives a tight
//     upper bound on the child's k-th neighbour distance, which prunes most
//     of the candidate scan outright.
//
// Results are bit-identical to the brute-force / KD-tree path: every
// surviving candidate's distance is accumulated in ascending feature order,
// which for dimensionality ≤ maxDeltaDim is exactly the grouping
// SquaredEuclidean uses, and the kept k-set is the unique lexicographic
// minimum under (distance, index), independent of visit order.

const (
	// maxDeltaDim bounds the view dimensionality the engine accepts.
	// SquaredEuclidean's 4-way unrolled accumulation is exactly
	// left-associative sequential only below 8 dimensions (the first
	// 4-chunk lands on a zero sum; from 8 dimensions the chunk grouping
	// differs), so 7 is the largest width at which per-dimension
	// accumulation reproduces its values bit for bit.
	maxDeltaDim = 7

	// maxDeltaPoints and minDeltaPoints gate the engine by view size: the
	// candidate scans are O(n) per query, which measures faster than the
	// KD-tree only up to a few hundred points; tiny views are cheaper to
	// score through the plain index.
	maxDeltaPoints = 512
	minDeltaPoints = 64

	// sweepMaxDim bounds the sorted-dimension sweep path; wider views use
	// the seeded candidate scan, whose pruning threshold comes from a
	// resident parent or the cached full-space neighbourhood.
	sweepMaxDim = 2

	// deltaMargin is the relative safety factor applied to prune radii
	// derived from parent distances. The parent entry holds Euclidean
	// distances, which the scan squares back: sqrt-then-square is within
	// ~3 ulp of the parent's squared distance (and exact when that is
	// subnormal, whose ulp dwarfs the roundtrip's error). The child's
	// canonical accumulation sums the same non-negative terms in a
	// different grouping, within ~d ulp more. 1e-9 over-covers that by six
	// orders of magnitude while loosening the radius immeasurably.
	deltaMargin = 1e-9

	// maxDeltaSources bounds the per-dataset pinned structures (sorted
	// dimension orders, full-space seeds) an engine retains. A per-detector
	// engine only ever sees a handful of datasets, but the process-wide
	// shared plane funnels EVERY dataset in the process through one engine,
	// so the coldest source is dropped once the cap is reached — its
	// structures are rebuilt on demand if that dataset returns.
	maxDeltaSources = 32
)

// ColumnSource is the column-contiguous access the delta engine needs from
// a subspace view: the view's own columns in ascending feature order, plus
// enough source identity to key cached structures. dataset.View implements
// it; the engine deliberately depends only on this interface.
type ColumnSource interface {
	// N returns the number of points.
	N() int
	// Dim returns the view's dimensionality.
	Dim() int
	// Column returns the j-th column of the view (ascending feature
	// order), shared storage of length N.
	Column(j int) []float64
	// Feature returns the global feature index of view column j.
	Feature(j int) int
	// NumFeatures returns the source dataset's full dimensionality.
	NumFeatures() int
	// SourceColumn returns full-space column f, shared storage.
	SourceColumn(f int) []float64
	// SourceKey identifies the underlying dataset; sources scored through
	// one engine must carry distinct keys.
	SourceKey() string
	// SubspaceKey canonically identifies the view's subspace.
	SubspaceKey() string
}

// DeltaStats is a point-in-time snapshot of the engine's activity.
type DeltaStats struct {
	// Queries counts AllKNN calls the engine accepted.
	Queries int
	// SweepQueries of those used the sorted-dimension sweep (1d/2d views).
	SweepQueries int
	// ParentSeeded of those pruned with a cached parent subspace's kNN.
	ParentSeeded int
	// FullSeeded of those pruned with the cached full-space kNN.
	FullSeeded int
	// Rejected counts calls outside the engine's gates (dimension, size,
	// or non-finite coordinates).
	Rejected int
}

// deltaEngine holds the per-source structures — per-dimension sorted
// orders, 2d sweep pairs, and full-space neighbourhoods — that make staged
// subspace scoring incremental, and reads parent neighbourhoods from the
// owning plane's cache. It is safe for concurrent use; cached structures
// are immutable once published, and concurrent builds of the same
// structure are serialised so it is computed once.
type deltaEngine struct {
	plane *memo.Cache[planeEntry] // parent lookup (Peek only)

	mu      sync.Mutex
	tick    int64 // source-recency clock (see source)
	sources map[string]*deltaSource
	stats   DeltaStats
}

// deltaSource holds the per-dataset structures: sorted per-dimension orders,
// 2d sweep pairs built from them, finite flags, and the full-space kNN per
// neighbourhood size. All are small and pinned (outside the plane's byte
// budget, bounded by maxDeltaSources).
type deltaSource struct {
	dims    map[int]*sortedDim
	ranges  map[int]float64
	pairs   map[string]*sweepPair
	fullKNN map[int]*knnEntry
	finite  map[int]bool
	lastUse int64 // tick of the most recent source() lookup
}

// finiteColumn reports (memoised per feature) whether the column holds only
// finite values. NaN or ±Inf coordinates would break both the sweep's gap
// lower bound and the bit-ordered distance compares of the packed top-k, so
// the engine declines such views and the caller's standard-path fallback
// answers them. Caller holds mu.
func (ds *deltaSource) finiteColumn(src ColumnSource, j int) bool {
	f := src.Feature(j)
	if fin, ok := ds.finite[f]; ok {
		return fin
	}
	fin := true
	for _, x := range src.Column(j) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			fin = false
			break
		}
	}
	ds.finite[f] = fin
	return fin
}

// sweepPair is the 2d sweep structure of one subspace: the sweep dimension's
// sorted order plus the OTHER dimension's values gathered into that order,
// so the outward walk touches only sequential memory.
type sweepPair struct {
	sd      *sortedDim
	other   []float64
	swFirst bool // sweep dimension is the lower feature (canonical order)
}

// pairFor returns (building on demand, O(n)) the 2d sweep structure for the
// view's subspace, sweeping column j.
func (ds *deltaSource) pairFor(src ColumnSource, j int) *sweepPair {
	key := src.SubspaceKey()
	if p, ok := ds.pairs[key]; ok {
		return p
	}
	sd := ds.sortedFor(src, j)
	oc := src.Column(1 - j)
	other := make([]float64, len(sd.ord))
	for r, id := range sd.ord {
		other[r] = oc[id]
	}
	p := &sweepPair{sd: sd, other: other, swFirst: j == 0}
	ds.pairs[key] = p
	return p
}

// sortedDim is one dimension's sort order: vals ascending, ord the point
// index at each sorted position, rank the inverse permutation.
type sortedDim struct {
	vals []float64
	ord  []int32
	rank []int32
}

// knnEntry is one source's full-space neighbourhood at one k: for every
// point, its m nearest neighbours — the threshold seeds of views with no
// resident parent.
type knnEntry struct {
	m   int
	idx []int32 // n×m neighbour indices
}

// newDeltaEngine returns an engine that seeds wide views from parent
// entries resident in plane.
func newDeltaEngine(plane *memo.Cache[planeEntry]) *deltaEngine {
	return &deltaEngine{plane: plane, sources: make(map[string]*deltaSource)}
}

// Forget drops the pinned per-source structures of the dataset identified
// by sourceKey (dataset.Dataset.SourceKey). Owners of short-lived datasets
// call it (through Plane.Forget) when the dataset dies, so its sorted
// orders, sweep pairs, and full-space seeds do not occupy one of the
// maxDeltaSources slots until pressure evicts them. Safe when sourceKey
// has no state.
func (e *deltaEngine) Forget(sourceKey string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.sources, sourceKey)
}

// Stats returns the engine's activity counters.
func (e *deltaEngine) Stats() DeltaStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// AllKNN computes the all-points k-nearest-neighbour structure for the view
// when it falls inside the engine's gates (dimensionality ≤ maxDeltaDim,
// point count within the scan-friendly range, finite coordinates),
// distributing the independent per-point queries over the given number of
// workers. The returned arrays are fresh, flat n×m row-major
// (m = min(k, n−1)): point i's neighbours are idx[i*m : (i+1)*m] with
// Euclidean distances in the matching dist slots, ascending, index
// tie-broken — bit-identical to AllKNNFlat over NewIndex at any worker
// count. ok reports whether the engine handled the query; on false the
// caller must fall back to the standard index path.
func (e *deltaEngine) AllKNN(ctx context.Context, src ColumnSource, k, workers int) (idx []int32, dist []float64, m int, ok bool, err error) {
	n, d := src.N(), src.Dim()
	if d < 1 || d > maxDeltaDim || n < minDeltaPoints || n > maxDeltaPoints || k < 1 {
		e.mu.Lock()
		e.stats.Rejected++
		e.mu.Unlock()
		return nil, nil, 0, false, nil
	}
	m = k
	if m > n-1 {
		m = n - 1
	}
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = src.Column(j)
	}

	q := &deltaQuery{cols: cols, n: n, m: m}
	e.mu.Lock()
	ds := e.source(src.SourceKey())
	for j := 0; j < d; j++ {
		if !ds.finiteColumn(src, j) {
			e.stats.Rejected++
			e.mu.Unlock()
			return nil, nil, 0, false, nil
		}
	}
	e.stats.Queries++
	if d == 1 {
		e.stats.SweepQueries++
		q.sweep = ds.sortedFor(src, 0)
	} else if d == 2 {
		e.stats.SweepQueries++
		q.pair = ds.pairFor(src, e.bestSweepColumn(ds, src))
	} else if parent, col, found := e.parentEntry(src, m); found {
		e.stats.ParentSeeded++
		q.seedIdx, q.seedDist, q.seedM, q.deltaCol = parent.idx, parent.dist, parent.m, col
	} else {
		full, ferr := e.fullSpaceKNN(ctx, ds, src, k, workers)
		if ferr != nil {
			e.mu.Unlock()
			return nil, nil, 0, false, ferr
		}
		e.stats.FullSeeded++
		q.seedIdx = full.idx
		q.seedM = full.m
	}
	e.mu.Unlock()

	flatIdx := make([]int32, n*m)
	flatDist := make([]float64, n*m) // squared until the final pass
	scratch := make([]deltaScratch, parallel.ShardCount(workers, n))
	err = parallel.ForEachShard(ctx, workers, n, func(shard, i int) {
		q.point(i, flatIdx[i*m:(i+1)*m], flatDist[i*m:(i+1)*m], &scratch[shard])
	})
	if err != nil {
		return nil, nil, 0, false, err
	}
	for i, sq := range flatDist {
		flatDist[i] = math.Sqrt(sq)
	}
	return flatIdx, flatDist, m, true, nil
}

// source returns (creating on demand) the per-dataset state, evicting the
// least-recently-used source past maxDeltaSources. Caller holds mu.
func (e *deltaEngine) source(key string) *deltaSource {
	e.tick++
	ds, ok := e.sources[key]
	if !ok {
		if len(e.sources) >= maxDeltaSources {
			coldKey, coldUse := "", int64(1<<62)
			for k, s := range e.sources {
				if s.lastUse < coldUse {
					coldKey, coldUse = k, s.lastUse
				}
			}
			delete(e.sources, coldKey)
		}
		ds = &deltaSource{
			dims:    make(map[int]*sortedDim),
			ranges:  make(map[int]float64),
			pairs:   make(map[string]*sweepPair),
			fullKNN: make(map[int]*knnEntry),
			finite:  make(map[int]bool),
		}
		e.sources[key] = ds
	}
	ds.lastUse = e.tick
	return ds
}

// bestSweepColumn picks the view column whose dimension spreads widest —
// the sweep dimension with the strongest one-dimensional pruning. The
// choice only affects speed, never results, but is deterministic (ties go
// to the lowest feature). Caller holds mu.
func (e *deltaEngine) bestSweepColumn(ds *deltaSource, src ColumnSource) int {
	best, bestSpread := 0, math.Inf(-1)
	for j := 0; j < src.Dim(); j++ {
		f := src.Feature(j)
		spread, ok := ds.ranges[f]
		if !ok {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range src.Column(j) {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			spread = hi - lo
			ds.ranges[f] = spread
		}
		if spread > bestSpread {
			best, bestSpread = j, spread
		}
	}
	return best
}

// sortedFor returns (building on demand) the sorted order of the given view
// column's dimension. Caller holds mu.
func (ds *deltaSource) sortedFor(src ColumnSource, j int) *sortedDim {
	f := src.Feature(j)
	if sd, ok := ds.dims[f]; ok {
		return sd
	}
	col := src.Column(j)
	n := len(col)
	sd := &sortedDim{
		vals: make([]float64, n),
		ord:  make([]int32, n),
		rank: make([]int32, n),
	}
	for i := range sd.ord {
		sd.ord[i] = int32(i)
	}
	sort.Slice(sd.ord, func(a, b int) bool {
		va, vb := col[sd.ord[a]], col[sd.ord[b]]
		if va != vb {
			return va < vb
		}
		return sd.ord[a] < sd.ord[b] // deterministic on duplicate values
	})
	for r, p := range sd.ord {
		sd.vals[r] = col[p]
		sd.rank[p] = int32(r)
	}
	ds.dims[f] = sd
	return sd
}

// parentEntry looks in the plane for a resident kNN of any drop-one-feature
// parent of the view's subspace holding at least m neighbours per point,
// lowest dropped feature first (deterministic), and returns it with the
// view column of the dropped feature — the delta dimension.
func (e *deltaEngine) parentEntry(src ColumnSource, m int) (planeEntry, []float64, bool) {
	sk := src.SubspaceKey()
	prefix := src.SourceKey() + "|"
	for j := 0; j < src.Dim(); j++ {
		if en, ok := e.plane.Peek(prefix + dropFeature(sk, src.Feature(j))); ok && en.m >= m {
			return en, src.Column(j), true
		}
	}
	return planeEntry{}, nil, false
}

// dropFeature removes one feature from a canonical "1,4,9" subspace key.
func dropFeature(key string, f int) string {
	tok := strconv.Itoa(f)
	if key == tok {
		return ""
	}
	if len(key) > len(tok)+1 && key[:len(tok)+1] == tok+"," {
		return key[len(tok)+1:]
	}
	needle := "," + tok
	for i := 0; i+len(needle) <= len(key); i++ {
		if key[i:i+len(needle)] == needle &&
			(i+len(needle) == len(key) || key[i+len(needle)] == ',') {
			return key[:i] + key[i+len(needle):]
		}
	}
	return key
}

// fullSpaceKNN returns (building on demand) the source's full-space kNN at
// neighbourhood size k — the seed structure for views with no cached
// parent. Full-space distances upper-bound no subspace distance directly,
// but the candidates themselves are excellent threshold seeds: their
// canonical subspace distances are computed exactly, and the k-th of them
// always upper-bounds the true k-th. Caller holds mu; the build (one per
// source and k) runs inside it.
func (e *deltaEngine) fullSpaceKNN(ctx context.Context, ds *deltaSource, src ColumnSource, k, workers int) (*knnEntry, error) {
	if en, ok := ds.fullKNN[k]; ok {
		return en, nil
	}
	n, fd := src.N(), src.NumFeatures()
	flat := make([]float64, n*fd)
	rows := make([][]float64, n)
	for f := 0; f < fd; f++ {
		col := src.SourceColumn(f)
		for i := 0; i < n; i++ {
			flat[i*fd+f] = col[i]
		}
	}
	for i := range rows {
		rows[i] = flat[i*fd : (i+1)*fd : (i+1)*fd]
	}
	// The flat builder hands back the packed int32 layout knnEntry wants
	// directly, and NewIndex routes wide full spaces through the coded
	// brute-force scan — so the seed structure both skips the per-row slice
	// headers and inherits the prefilter. Indices are bit-identical either
	// way.
	ix := NewIndex(rows)
	idx, _, m, err := AllKNNFlat(ctx, ix, k, workers)
	if err != nil {
		return nil, err
	}
	en := &knnEntry{m: m, idx: idx}
	ds.fullKNN[k] = en
	return en, nil
}

// deltaQuery is one AllKNN invocation's immutable query plan.
type deltaQuery struct {
	cols [][]float64
	n, m int

	// Sweep paths: sorted order of the sweep dimension (1d views), or the
	// paired structure with the second dimension gathered into sweep order
	// (2d views).
	sweep *sortedDim
	pair  *sweepPair

	// Seeded path (dim > sweepMaxDim): threshold candidates per point.
	seedIdx  []int32
	seedDist []float64 // parent Euclidean distances (nil for full-space seeds)
	seedM    int
	deltaCol []float64 // the one dimension the parent lacks
}

// deltaScratch is the per-worker reusable query state.
type deltaScratch struct {
	topk topKScratch
	sd   []float64
	row  []float64
}

// nnPair is one top-k entry: the squared distance as its IEEE-754 bit
// pattern plus the neighbour index, packed into 16 bytes so an insertion
// shift moves one struct instead of slots in two parallel arrays. Squared
// distances of finite data are non-negative (possibly +Inf on overflow),
// and for non-negative non-NaN floats the bit patterns order exactly as the
// values — the finiteColumn gate excludes the NaN case — so uint64 compares
// on du are bit-equivalent to float compares on the distance.
type nnPair struct {
	du uint64
	id int32
}

// topKScratch maintains the k smallest (distance, index) pairs seen,
// ascending, ordered lexicographically by (distance, index) — the same
// total order and boundary tie-break as the standard path's boundedHeap,
// so the kept k-set is independent of visitation order even with
// duplicated points. An insertion-sorted array measures faster than a
// binary heap at the k ≈ 10–15 the detectors use: the average shift is
// short, sequential, and branch-predictable, where heap sift-downs pay
// two data-dependent comparisons per level.
type topKScratch struct {
	ent []nnPair
}

func (t *topKScratch) reset(k int) {
	if cap(t.ent) < k {
		t.ent = make([]nnPair, 0, k)
	}
	t.ent = t.ent[:0]
}

// insert adds (du, j), evicting the lexicographic maximum when full. A
// full-boundary tie — du equal to the current k-th distance with j above
// the incumbent's index — is a no-op, exactly boundedHeap.push semantics.
func (t *topKScratch) insert(du uint64, j int32, k int) {
	e := t.ent
	m := len(e)
	if m < k {
		e = append(e, nnPair{})
		t.ent = e
	} else {
		m = k - 1
		if du > e[m].du || (du == e[m].du && j > e[m].id) {
			return
		}
	}
	i := m
	for i > 0 && (e[i-1].du > du || (e[i-1].du == du && e[i-1].id > j)) {
		e[i] = e[i-1]
		i--
	}
	e[i] = nnPair{du: du, id: j}
}

// sortNNPairs insertion-sorts the entries ascending by (du, id).
func sortNNPairs(e []nnPair) {
	for a := 1; a < len(e); a++ {
		p := e[a]
		b := a - 1
		for b >= 0 && (e[b].du > p.du || (e[b].du == p.du && e[b].id > p.id)) {
			e[b+1] = e[b]
			b--
		}
		e[b+1] = p
	}
}

// point answers one query into the output slots.
func (q *deltaQuery) point(i int, outIdx []int32, outSq []float64, s *deltaScratch) {
	s.topk.reset(q.m)
	switch {
	case q.pair != nil:
		q.sweepPairPoint(i, s)
	case q.sweep != nil:
		q.sweepPoint(i, s)
	default:
		q.scanPoint(i, s)
	}
	for t, en := range s.topk.ent {
		outIdx[t] = en.id
		outSq[t] = math.Float64frombits(en.du)
	}
}

// canonical returns the squared distance between points a and b accumulated
// in ascending feature order — bit-identical to SquaredEuclidean on the
// materialised rows for dim ≤ maxDeltaDim.
func (q *deltaQuery) canonical(a, b int) float64 {
	c0 := q.cols[0]
	d0 := c0[a] - c0[b]
	dd := d0 * d0
	for _, c := range q.cols[1:] {
		dv := c[a] - c[b]
		dd += dv * dv
	}
	return dd
}

// sweepPoint visits candidates outward from the query's sorted position in
// the sweep dimension: the one-dimensional gap lower-bounds the full
// distance, so both walks stop as soon as the gap alone exceeds the current
// k-th distance. Candidates interleave by gap until the k-set fills, then
// each side drains independently (sequential, branch-predictable).
func (q *deltaQuery) sweepPoint(i int, s *deltaScratch) {
	sw := q.sweep
	n, k := q.n, q.m
	xq := sw.vals[sw.rank[i]]
	lo := int(sw.rank[i]) - 1
	hi := int(sw.rank[i]) + 1
	worst := math.Float64bits(math.Inf(1))
	// Fill phase: interleave both sides by gap so worst tightens fast.
	for len(s.topk.ent) < k && (lo >= 0 || hi < n) {
		var j int32
		if lo >= 0 && (hi >= n || xq-sw.vals[lo] <= sw.vals[hi]-xq) {
			j = sw.ord[lo]
			lo--
		} else {
			j = sw.ord[hi]
			hi++
		}
		if int(j) == i {
			continue
		}
		s.topk.insert(math.Float64bits(q.canonical(i, int(j))), j, k)
	}
	if len(s.topk.ent) == k {
		worst = s.topk.ent[k-1].du
	}
	// Drain phase: each side walks out until its gap² exceeds worst. The
	// gap grows monotonically per side and worst only shrinks, so the
	// first excess bounds everything beyond it.
	for ; lo >= 0; lo-- {
		g := xq - sw.vals[lo]
		if math.Float64bits(g*g) > worst {
			break
		}
		j := sw.ord[lo]
		if int(j) == i {
			continue
		}
		du := math.Float64bits(q.canonical(i, int(j)))
		if du > worst {
			continue
		}
		s.topk.insert(du, j, k)
		worst = s.topk.ent[k-1].du
	}
	for ; hi < n; hi++ {
		g := sw.vals[hi] - xq
		if math.Float64bits(g*g) > worst {
			break
		}
		j := sw.ord[hi]
		if int(j) == i {
			continue
		}
		du := math.Float64bits(q.canonical(i, int(j)))
		if du > worst {
			continue
		}
		s.topk.insert(du, j, k)
		worst = s.topk.ent[k-1].du
	}
}

// sweepPairPoint is the 2d sweep: candidates are visited outward from the
// query's sorted position in the sweep dimension, reading only the three
// sequential arrays of the sweepPair (sorted values, gathered second
// dimension, point ids). The sweep gap lower-bounds the 2d distance, so
// each side stops at the first gap² past the current k-th distance. The
// two squares are added in canonical (ascending-feature) order, keeping the
// values bit-identical to SquaredEuclidean.
func (q *deltaQuery) sweepPairPoint(i int, s *deltaScratch) {
	p := q.pair
	sd := p.sd
	vals, other, ord := sd.vals, p.other, sd.ord
	n, k := q.n, q.m
	r := int(sd.rank[i])
	xq := vals[r]
	yq := other[r]
	// The two squares must accumulate in ascending-feature order to stay
	// bit-identical to SquaredEuclidean; selecting which gathered column is
	// "first" here hoists that ordering decision out of the per-candidate
	// loops entirely.
	c0, c1 := vals, other
	x0, x1 := xq, yq
	if !p.swFirst {
		c0, c1 = other, vals
		x0, x1 = yq, xq
	}
	lo, hi := r-1, r+1
	topk := &s.topk
	// Fill phase: take the k gap-nearest candidates unconditionally,
	// interleaving both sides by gap so the radius is honest immediately
	// after.
	for len(topk.ent) < k && (lo >= 0 || hi < n) {
		var pos int
		if lo >= 0 && (hi >= n || xq-vals[lo] <= vals[hi]-xq) {
			pos = lo
			lo--
		} else {
			pos = hi
			hi++
		}
		d0 := c0[pos] - x0
		dd := d0 * d0
		d1 := c1[pos] - x1
		dd += d1 * d1
		topk.ent = append(topk.ent, nnPair{du: math.Float64bits(dd), id: ord[pos]})
	}
	sortNNPairs(topk.ent)
	worst := math.Float64bits(math.Inf(1))
	if len(topk.ent) == k {
		worst = topk.ent[k-1].du
	}
	// Drain phase: each side walks out until its gap² exceeds the radius;
	// the gap grows monotonically per side and the radius only shrinks.
	// The k-set is full here (the fill phase only stops short when both
	// sides are exhausted, in which case the drains never run), so the
	// insert is open-coded without the fill branch: with du ≤ worst ==
	// ent[k-1].du already established, only the boundary TIE can still be
	// a no-op (equal distance, higher index — boundedHeap.push semantics),
	// and everything else shifts in.
	ent := topk.ent
	last := k - 1
	for ; lo >= 0; lo-- {
		g := xq - vals[lo]
		if math.Float64bits(g*g) > worst {
			break
		}
		d0 := c0[lo] - x0
		dd := d0 * d0
		d1 := c1[lo] - x1
		dd += d1 * d1
		du := math.Float64bits(dd)
		if du > worst {
			continue
		}
		j := ord[lo]
		if du == worst && j > ent[last].id {
			continue
		}
		p := last
		for p > 0 && (ent[p-1].du > du || (ent[p-1].du == du && ent[p-1].id > j)) {
			ent[p] = ent[p-1]
			p--
		}
		ent[p] = nnPair{du: du, id: j}
		worst = ent[last].du
	}
	for ; hi < n; hi++ {
		g := vals[hi] - xq
		if math.Float64bits(g*g) > worst {
			break
		}
		d0 := c0[hi] - x0
		dd := d0 * d0
		d1 := c1[hi] - x1
		dd += d1 * d1
		du := math.Float64bits(dd)
		if du > worst {
			continue
		}
		j := ord[hi]
		if du == worst && j > ent[last].id {
			continue
		}
		p := last
		for p > 0 && (ent[p-1].du > du || (ent[p-1].du == du && ent[p-1].id > j)) {
			ent[p] = ent[p-1]
			p--
		}
		ent[p] = nnPair{du: du, id: j}
		worst = ent[last].du
	}
}

// scanPoint scores one query by a full candidate scan whose initial prune
// radius comes from the seed candidates: with a parent, each seed's child
// distance bound is the squared parent distance plus only the
// one-dimension delta component (scaled by the float-safety margin);
// without, the seeds' canonical distances are computed outright. Either
// way the k-th seed distance upper-bounds the true k-th distance, so
// initialising worst with it skips most candidates after one compare.
func (q *deltaQuery) scanPoint(i int, s *deltaScratch) {
	n, k := q.n, q.m
	worst := math.Inf(1)
	if q.seedM >= k {
		if cap(s.sd) < q.seedM {
			s.sd = make([]float64, 0, q.seedM)
		}
		sd := s.sd[:0]
		seeds := q.seedIdx[i*q.seedM : (i+1)*q.seedM]
		if q.seedDist != nil {
			// Squared parent distance + one-dimension delta.
			pd := q.seedDist[i*q.seedM : (i+1)*q.seedM]
			col := q.deltaCol
			vq := col[i]
			for t, j := range seeds {
				if int(j) == i {
					continue
				}
				dv := vq - col[j]
				sd = append(sd, pd[t]*pd[t]+dv*dv)
			}
			if kth, ok := kthSmallest(sd, k); ok {
				worst = kth * (1 + deltaMargin)
			}
		} else {
			// Canonical distances of the seed candidates; exact, no margin.
			for _, j := range seeds {
				if int(j) == i {
					continue
				}
				sd = append(sd, q.canonical(i, int(j)))
			}
			if kth, ok := kthSmallest(sd, k); ok {
				worst = kth
			}
		}
		s.sd = sd[:0]
	}

	// Compose every candidate's distance by streaming column passes over
	// the column-major data, two columns per traversal to halve the row
	// traffic. Each row slot accumulates its squares one at a time in
	// ascending feature order, left-associated — exactly SquaredEuclidean's
	// grouping at dim ≤ 7, so the values are bit-identical to the
	// row-major path.
	if cap(s.row) < n {
		s.row = make([]float64, n)
	}
	row := s.row[:n]
	cols := q.cols
	c0 := cols[0]
	v0 := c0[i]
	for j, cv := range c0 {
		d0 := v0 - cv
		row[j] = d0 * d0
	}
	t := 1
	for ; t+1 < len(cols); t += 2 {
		ca, cb := cols[t], cols[t+1]
		va, vb := ca[i], cb[i]
		for j := range row {
			da := va - ca[j]
			acc := row[j] + da*da
			db := vb - cb[j]
			row[j] = acc + db*db
		}
	}
	for ; t < len(cols); t++ {
		c := cols[t]
		vi := c[i]
		for j, cv := range c {
			dv := vi - cv
			row[j] += dv * dv
		}
	}
	for j := 0; j < n; j++ {
		dd := row[j]
		if dd > worst || j == i {
			continue
		}
		s.topk.insert(math.Float64bits(dd), int32(j), k)
		if len(s.topk.ent) == k {
			if w := math.Float64frombits(s.topk.ent[k-1].du); w < worst {
				worst = w
			}
		}
	}
}

// kthSmallest returns the k-th smallest value of vals (insertion-sorting
// the leading k as it goes); ok is false when fewer than k values exist.
func kthSmallest(vals []float64, k int) (float64, bool) {
	if len(vals) < k {
		return 0, false
	}
	for i := 1; i < len(vals); i++ {
		d := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > d {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = d
	}
	return vals[k-1], true
}
