package neighbors

import (
	"context"
	"math"
	"sort"
	"sync"

	"anex/internal/parallel"
)

// The delta engine answers AllKNN queries over low-dimensional subspace
// views from per-dataset structures shared by every view of the dataset,
// instead of building a fresh spatial index per view. It has two paths:
//
//   - 2d views sweep one sorted dimension. Squared Euclidean distance
//     decomposes additively over dimensions, so the one-dimensional gap
//     lower-bounds the 2d distance, and each side of the outward walk stops
//     as soon as the gap alone exceeds the current k-th distance.
//   - Every other view scans all candidates. The view's squared distances
//     are composed once per pair into an n×n block, and each point's
//     k-nearest list starts full: from its full-space neighbours (the
//     source's cached full-space kNN), whose k-th distance upper-bounds
//     the true k-th and so starts the scan with a tight radius, or, for
//     the full space itself, from its first k candidates.
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

	// maxDeltaSources bounds the per-dataset pinned structures (sorted
	// dimension orders, full-space seeds) an engine retains. A grid's plane
	// only ever sees a handful of datasets, but a long-lived plane (an
	// experiment session's, anexd's) funnels every dataset it serves
	// through one engine, so the coldest source is dropped once the cap is
	// reached — its structures are rebuilt on demand if that dataset
	// returns.
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
	// SweepQueries of those used the sorted-dimension sweep (2d views).
	SweepQueries int
	// ParentSeeded is always 0: no path seeds from a parent subspace. The
	// benchmark harness reads the field, so it stays until that changes.
	ParentSeeded int
	// FullSeeded of those pruned with the cached full-space kNN (every
	// other view narrower than the full space). The rest of Queries are
	// full-space views, scanned unseeded.
	FullSeeded int
	// Rejected counts calls outside the engine's gates (dimension, size,
	// or non-finite coordinates).
	Rejected int
}

// deltaEngine holds the per-source structures — per-dimension sorted
// orders, spreads and finite flags, and full-space neighbourhoods — that
// every view of a dataset shares. It is safe for concurrent use; cached
// structures are immutable once published, and concurrent builds of the
// same structure are serialised so it is computed once.
type deltaEngine struct {
	mu      sync.Mutex
	tick    int64 // source-recency clock (see source)
	sources map[string]*deltaSource
	stats   DeltaStats
}

// deltaSource holds the per-dataset structures: sorted per-dimension orders,
// per-feature spreads and finite flags, and the full-space kNN per
// neighbourhood size. All are pinned outside the plane's byte budget; only
// the number of sources is bounded (maxDeltaSources).
type deltaSource struct {
	dims    map[int]*sortedDim
	ranges  map[int]float64
	fullKNN map[int]*knnEntry
	finite  map[int]bool
	lastUse int64 // tick of the most recent source() lookup
}

// finiteColumn reports (memoised per feature) whether the column holds only
// finite values. NaN or ±Inf coordinates would break both the sweep's gap
// lower bound and the (d2, id) order of the k-nearest lists (a NaN
// distance orders against nothing), so the engine declines such views and
// the caller's standard-path fallback answers them. Caller holds mu.
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

// sweepPair is the 2d sweep structure of one query: the sweep dimension's
// sorted order plus the OTHER dimension's values gathered into that order,
// so the outward walk touches only sequential memory.
type sweepPair struct {
	sd      *sortedDim
	other   []float64
	swFirst bool // sweep dimension is the lower feature (canonical order)
}

// newSweepPair builds (O(n)) the 2d sweep structure of a view sweeping its
// column j, whose sorted order is sd.
func newSweepPair(src ColumnSource, sd *sortedDim, j int) *sweepPair {
	oc := src.Column(1 - j)
	other := make([]float64, len(sd.ord))
	for r, id := range sd.ord {
		other[r] = oc[id]
	}
	return &sweepPair{sd: sd, other: other, swFirst: j == 0}
}

// sortedDim is one dimension's sort order: vals ascending, ord the point
// index at each sorted position, rank the inverse permutation.
type sortedDim struct {
	vals []float64
	ord  []int32
	rank []int32
}

// knnEntry is one source's full-space neighbourhood at one k: for every
// point, its m nearest neighbours — the threshold seeds of the scanned
// views.
type knnEntry struct {
	m   int
	idx []int32 // n×m neighbour indices
}

// newDeltaEngine returns an empty engine.
func newDeltaEngine() *deltaEngine {
	return &deltaEngine{sources: make(map[string]*deltaSource)}
}

// Forget drops the pinned per-source structures of the dataset identified
// by sourceKey (dataset.Dataset.SourceKey). Owners of short-lived datasets
// call it (through Plane.Forget) when the dataset dies, so its sorted
// orders and full-space seeds do not occupy one of the
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
	if d == 2 {
		e.stats.SweepQueries++
		j := e.bestSweepColumn(ds, src)
		q.pair = newSweepPair(src, ds.sortedFor(src, j), j)
	} else if d < src.NumFeatures() {
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

	if q.pair == nil {
		bp := sqBlocks.Get().(*[]float64)
		defer sqBlocks.Put(bp)
		if cap(*bp) < n*n {
			*bp = make([]float64, n*n)
		}
		q.block = (*bp)[:n*n]
		if err := parallel.ForEach(ctx, workers, n, q.composeRow); err != nil {
			return nil, nil, 0, false, err
		}
	}
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

// fullSpaceKNN returns (building on demand) the source's full-space kNN at
// neighbourhood size k — the seed structure of the scanned views.
// Full-space distances upper-bound no subspace distance directly,
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

// sqBlocks recycles the scan path's n×n squared-distance blocks (at most
// maxDeltaPoints² float64s, 2 MiB) across queries.
var sqBlocks = sync.Pool{New: func() any { return new([]float64) }}

// deltaQuery is one AllKNN invocation's query plan.
type deltaQuery struct {
	cols [][]float64
	n, m int

	// Sweep path (2d views): the sweep dimension's sorted order with the
	// second dimension gathered into it.
	pair *sweepPair

	// Scan path (every other view): seedM threshold candidates per point,
	// none for the unseeded full-space scan, and the view's n×n squared
	// distances, row-major (the diagonal is never written; its value is unused).
	seedIdx []int32
	seedM   int
	block   []float64
}

// deltaScratch is the per-worker reusable query state: the k-nearest list
// of the current point, and stamp[j] == gen marking candidate j as already
// in the current scan point's prefilled list.
type deltaScratch struct {
	nn    []neighbor
	stamp []uint32
	gen   uint32
}

// point answers one query into the output slots.
func (q *deltaQuery) point(i int, outIdx []int32, outSq []float64, s *deltaScratch) {
	if q.pair != nil {
		s.nn = q.sweepPairPoint(i, emptyList(s.nn, q.m))
	} else {
		s.nn = q.scanPoint(i, emptyList(s.nn, q.m), s)
	}
	for t, nb := range s.nn {
		outIdx[t] = nb.id
		outSq[t] = nb.d2
	}
}

// sweepPairPoint is the 2d sweep: candidates are visited outward from the
// query's sorted position in the sweep dimension, reading only the three
// sequential arrays of the sweepPair (sorted values, gathered second
// dimension, point ids). The sweep gap lower-bounds the 2d distance, so
// each side stops at the first gap² past the current k-th distance. The
// two squares are added in canonical (ascending-feature) order, keeping the
// values bit-identical to SquaredEuclidean.
func (q *deltaQuery) sweepPairPoint(i int, nn []neighbor) []neighbor {
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
	// Fill phase: take the k gap-nearest candidates unconditionally,
	// interleaving both sides by gap so the radius is honest immediately
	// after.
	for len(nn) < k && (lo >= 0 || hi < n) {
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
		nn = insertNeighbor(nn, dd, ord[pos], k)
	}
	radius := listRadius(nn, k)
	// Drain phase: each side walks out until its gap² exceeds the radius;
	// the gap grows monotonically per side and the radius only shrinks.
	// The list is full here (the fill phase only stops short when both
	// sides are exhausted, in which case the drains never run).
	for ; lo >= 0; lo-- {
		g := xq - vals[lo]
		if g*g > radius {
			break
		}
		d0 := c0[lo] - x0
		dd := d0 * d0
		d1 := c1[lo] - x1
		dd += d1 * d1
		if dd <= radius {
			nn = insertNeighbor(nn, dd, ord[lo], k)
			radius = listRadius(nn, k)
		}
	}
	for ; hi < n; hi++ {
		g := vals[hi] - xq
		if g*g > radius {
			break
		}
		d0 := c0[hi] - x0
		dd := d0 * d0
		d1 := c1[hi] - x1
		dd += d1 * d1
		if dd <= radius {
			nn = insertNeighbor(nn, dd, ord[hi], k)
			radius = listRadius(nn, k)
		}
	}
	return nn
}

// composeRow writes point i's squared distances to every later point into
// row i of the block and mirrors each into column i, so every pair is
// composed once. The column passes stream the column-major data, two
// columns per traversal to halve the row traffic; each slot accumulates
// its squares one at a time in ascending feature order, left-associated —
// exactly SquaredEuclidean's grouping at dim ≤ 7 — and (vi − vj)² equals
// (vj − vi)² bit for bit, so both halves of the block are bit-identical to
// the row-major path.
func (q *deltaQuery) composeRow(i int) {
	n, cols := q.n, q.cols
	row := q.block[i*n+i+1 : (i+1)*n]
	c0 := cols[0][i+1:]
	v0 := cols[0][i]
	for j, cv := range c0 {
		d0 := v0 - cv
		row[j] = d0 * d0
	}
	t := 1
	for ; t+1 < len(cols); t += 2 {
		ca, cb := cols[t][i+1:], cols[t+1][i+1:]
		ca, cb = ca[:len(row)], cb[:len(row)] // bounds-check hint
		va, vb := cols[t][i], cols[t+1][i]
		for j := range row {
			da := va - ca[j]
			acc := row[j] + da*da
			db := vb - cb[j]
			row[j] = acc + db*db
		}
	}
	for ; t < len(cols); t++ {
		c := cols[t][i+1:]
		vi := cols[t][i]
		for j, cv := range c {
			dv := vi - cv
			row[j] += dv * dv
		}
	}
	for j, dd := range row {
		q.block[(i+1+j)*n+i] = dd
	}
}

// scanPoint selects one query's k-nearest list from its block row. The
// list is prefilled with k candidates — the point's full-space neighbours
// (none when the view is unseeded), topped up with the first non-self
// candidates — which are stamped so the scan skips them. Any k distinct
// candidates upper-bound the true k-th distance, and seeds bound it
// tightly, so most of the row is rejected by its first compare against
// the radius.
func (q *deltaQuery) scanPoint(i int, nn []neighbor, s *deltaScratch) []neighbor {
	n, k := q.n, q.m
	row := q.block[i*n : (i+1)*n]
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.gen++
	stamp, gen := s.stamp[:n], s.gen
	for _, j := range q.seedIdx[i*q.seedM : (i+1)*q.seedM] {
		if int(j) != i && len(nn) < k {
			nn = insertNeighbor(nn, row[j], j, k)
			stamp[j] = gen
		}
	}
	for j := 0; len(nn) < k; j++ {
		if j != i && stamp[j] != gen {
			nn = insertNeighbor(nn, row[j], int32(j), k)
			stamp[j] = gen
		}
	}
	radius := listRadius(nn, k)
	for j, dd := range row {
		if dd > radius || j == i || stamp[j] == gen {
			continue
		}
		nn = insertNeighbor(nn, dd, int32(j), k)
		radius = listRadius(nn, k)
	}
	return nn
}
