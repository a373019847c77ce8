package neighbors

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"

	"anex/internal/parallel"
)

// The delta path answers the plane's AllKNN queries over low-dimensional
// subspace views from per-dataset structures shared by every view of the
// dataset, instead of building a fresh spatial index per view. It has two
// paths:
//
//   - 2d views sweep one sorted dimension. Squared Euclidean distance
//     decomposes additively over dimensions, so the one-dimensional gap
//     lower-bounds the 2d distance, and each side of the outward walk stops
//     as soon as the gap alone exceeds the current k-th distance.
//   - Every other view scans all candidates. The view's squared distances
//     are composed once per pair into an n×n block, and each point's
//     k-nearest list starts full: from its full-space neighbours, whose
//     k-th distance upper-bounds the true k-th and so starts the scan with
//     a tight radius, or, for the full space itself, from its first k
//     candidates.
//
// The shared structures — a feature's sort order, built only for a 2d
// view's sweep column, and the source's full-space kNN at one k — are
// entries of the plane's source cache, the same internal/memo mechanism
// as its view entries: each is built once per key (concurrent misses wait
// for one builder without blocking other keys), resident under the
// plane's byte budget, and dropped with the dataset's view entries by
// Plane.Forget. The full-space kNN seeds both scan tiers: the delta scan,
// and the coded brute-force index the plane builds for a subspace view
// too wide or too large for this path, whose queries prefill their lists
// from it the same way.
//
// Results are bit-identical to the brute-force / KD-tree path: every
// surviving candidate's distance is accumulated in ascending feature order,
// which for dimensionality ≤ maxDeltaDim is exactly the grouping
// SquaredEuclidean uses, and the kept k-set is the unique lexicographic
// minimum under (distance, index), independent of visit order.

const (
	// maxDeltaDim bounds the view dimensionality the delta path accepts.
	// SquaredEuclidean's 4-way unrolled accumulation is exactly
	// left-associative sequential only below 8 dimensions (the first
	// 4-chunk lands on a zero sum; from 8 dimensions the chunk grouping
	// differs), so 7 is the largest width at which per-dimension
	// accumulation reproduces its values bit for bit.
	maxDeltaDim = 7

	// maxDeltaPoints and minDeltaPoints gate the delta path by view size:
	// the candidate scans are O(n) per query, which measures faster than
	// the KD-tree only up to a few hundred points; tiny views are cheaper
	// to score through the plain index.
	maxDeltaPoints = 512
	minDeltaPoints = 64
)

// ColumnSource is the column-contiguous access the delta path needs from
// a subspace view: the view's own columns in ascending feature order, plus
// enough source identity to key cached structures. dataset.View implements
// it; the plane deliberately depends only on this interface.
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
	// one plane must carry distinct keys.
	SourceKey() string
	// CacheKey identifies the view: SourceKey, "|", and a canonical key
	// of the view's subspace.
	CacheKey() string
}

// DeltaStats is a point-in-time snapshot of the plane's delta-path
// activity.
type DeltaStats struct {
	// Queries counts computations the delta path accepted.
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
	// Rejected counts computations outside the delta path's gates
	// (dimension, size, or non-finite coordinates).
	Rejected int
}

// sourceEntry is one per-dataset structure in the plane's source cache:
// exactly one of a feature's sort order (key <SourceKey>|s<feature>) and
// the full-space kNN at one k (key <SourceKey>|k<k>).
type sourceEntry struct {
	sorted *sortedDim
	seeds  *knnEntry
}

// bytes is a source entry's payload charge.
func (en sourceEntry) bytes() int64 {
	if en.sorted != nil {
		return int64(len(en.sorted.vals))*8 + int64(len(en.sorted.ord)+len(en.sorted.rank))*4
	}
	return int64(len(en.seeds.idx)) * 4
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

// deltaKNN computes the all-points k-nearest-neighbour structure for the
// view when it falls inside the delta path's gates (dimensionality ≤
// maxDeltaDim, point count within the scan-friendly range, finite
// coordinates), distributing the independent per-point queries over the
// given number of workers. The returned arrays are fresh, flat n×m
// row-major (m = min(k, n−1)): point i's neighbours are idx[i*m : (i+1)*m]
// with Euclidean distances in the matching dist slots, ascending, index
// tie-broken — bit-identical to AllKNNFlat over NewIndex at any worker
// count. ok reports whether the delta path handled the query; on false the
// caller must fall back to the standard index path.
func (p *Plane) deltaKNN(ctx context.Context, src ColumnSource, k, workers int) (idx []int32, dist []float64, m int, ok bool, err error) {
	n, d := src.N(), src.Dim()
	ok = d >= 1 && d <= maxDeltaDim && n >= minDeltaPoints && n <= maxDeltaPoints && k >= 1
	cols := make([][]float64, d)
	// The sweep column of a 2d view is the one whose dimension spreads
	// widest — the strongest one-dimensional pruning. The choice only
	// affects speed, never results, but is deterministic (ties go to the
	// lowest feature).
	sweep, widest := 0, math.Inf(-1)
	for j := 0; ok && j < d; j++ {
		cols[j] = src.Column(j)
		spread, finite := columnSpread(cols[j])
		if spread > widest {
			sweep, widest = j, spread
		}
		ok = finite
	}
	p.mu.Lock()
	if !ok {
		p.delta.Rejected++
	} else {
		p.delta.Queries++
		if d == 2 {
			p.delta.SweepQueries++
		}
	}
	p.mu.Unlock()
	if !ok {
		return nil, nil, 0, false, nil
	}
	m = min(k, n-1)

	q := &deltaQuery{cols: cols, n: n, m: m}
	if d == 2 {
		sd, err := p.sortOrder(ctx, src, sweep)
		if err != nil {
			return nil, nil, 0, false, err
		}
		q.pair = newSweepPair(src, sd, sweep)
	} else if d < src.NumFeatures() {
		full, err := p.fullSpaceKNN(ctx, src, k, workers)
		if err != nil {
			return nil, nil, 0, false, err
		}
		p.mu.Lock()
		p.delta.FullSeeded++
		p.mu.Unlock()
		q.seedIdx = full.idx
		q.seedM = full.m
	}

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

// columnSpread returns the column's spread (max − min) and whether every
// value is finite. NaN or ±Inf coordinates would break both the sweep's
// gap lower bound and the (d2, id) order of the k-nearest lists (a NaN
// distance orders against nothing), so the delta path declines such views
// and the standard index path answers them.
func columnSpread(col []float64) (spread float64, finite bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo, true
}

// sortOrder returns the sort order of view column j's feature from the
// source cache, building it on a miss.
func (p *Plane) sortOrder(ctx context.Context, src ColumnSource, j int) (*sortedDim, error) {
	key := src.SourceKey() + "|s" + strconv.Itoa(src.Feature(j))
	en, err := p.sources.Get(ctx, key, nil, func(context.Context) (sourceEntry, error) {
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
		for r, id := range sd.ord {
			sd.vals[r] = col[id]
			sd.rank[id] = int32(r)
		}
		return sourceEntry{sorted: sd}, nil
	})
	return en.sorted, err
}

// fullSpaceKNN returns the source's full-space kNN at neighbourhood size k
// from the source cache, building it on a miss — the seed structure of the
// scanned views. Full-space distances upper-bound no subspace distance
// directly, but the candidates themselves are excellent threshold seeds:
// their canonical subspace distances are computed exactly, and the k-th of
// them always upper-bounds the true k-th. NewIndex routes wide full spaces
// through the coded brute-force scan, so the seed build inherits the
// prefilter; indices are bit-identical either way.
func (p *Plane) fullSpaceKNN(ctx context.Context, src ColumnSource, k, workers int) (*knnEntry, error) {
	key := src.SourceKey() + "|k" + strconv.Itoa(k)
	en, err := p.sources.Get(ctx, key, nil, func(ctx context.Context) (sourceEntry, error) {
		rows := gatherRows(src.N(), src.NumFeatures(), src.SourceColumn)
		idx, _, m, err := AllKNNFlat(ctx, NewIndex(rows), k, workers)
		if err != nil {
			return sourceEntry{}, err
		}
		return sourceEntry{seeds: &knnEntry{m: m, idx: idx}}, nil
	})
	return en.seeds, err
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
// of the current point, and the marks of the candidates already in the
// current scan point's prefilled list.
type deltaScratch struct {
	nn    []neighbor
	marks rowMarks
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
// candidates — which are marked so the scan skips them. Any k distinct
// candidates upper-bound the true k-th distance, and seeds bound it
// tightly, so most of the row is rejected by its first compare against
// the radius.
func (q *deltaQuery) scanPoint(i int, nn []neighbor, s *deltaScratch) []neighbor {
	n, k := q.n, q.m
	row := q.block[i*n : (i+1)*n]
	seen := &s.marks
	seen.next(n)
	seen.set(int32(i))
	for _, j := range q.seedIdx[i*q.seedM : (i+1)*q.seedM] {
		if len(nn) < k && seen.set(j) {
			nn = insertNeighbor(nn, row[j], j, k)
		}
	}
	for j := int32(0); len(nn) < k; j++ {
		if seen.set(j) {
			nn = insertNeighbor(nn, row[j], j, k)
		}
	}
	radius := listRadius(nn, k)
	mark, gen := seen.mark[:n], seen.gen
	for j, dd := range row {
		if dd > radius || mark[j] == gen {
			continue
		}
		nn = insertNeighbor(nn, dd, int32(j), k)
		radius = listRadius(nn, k)
	}
	return nn
}
