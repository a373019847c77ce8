package neighbors

import (
	"math"
	"sync/atomic"
)

// bruteForce is an exhaustive-scan index: O(n) per query into a k-nearest
// list. The scan early-exits each candidate's distance accumulation
// against the list's prune radius once the list is full, which prunes most
// of the inner-loop work on high-dimensional views. NewIndex builds it with
// the quantized prefilter (quant.go) whenever the view has at least
// quantMinPoints rows and the code book accepts it: candidates then reach
// the exact kernel only through the shared tile scan (scanTiles), which
// rejects from 8-bit codes alone the ones the kernel's own early exit would
// have discarded — so coded and plain scans are bit-identical.
type bruteForce struct {
	points [][]float64
	codes  *bruteCodes // nil: the plain scan
}

// bruteCodes is a coded index's prefilter state and activity ledger; the
// plane folds the counters into PlaneStats.Prune after each computation.
type bruteCodes struct {
	qp   *quantParams
	rows []uint8 // one padded code row per point, in point order
	tile int

	queries, qcand, qrej atomic.Int64
}

// NewBruteForce builds a plain exhaustive-scan index over the points — the
// unpruned reference every other index answers bit-identically to.
func NewBruteForce(points [][]float64) Index {
	return bruteForce{points: points}
}

// newBruteForce builds a brute-force index whose prefilter scans in tiles
// of the given size: tile 0 builds no codes (the plain reference scan),
// larger tiles are clamped to quantTileMax. Views below quantMinPoints
// rows, or that the code book refuses, stay plain.
func newBruteForce(points [][]float64, tile int) bruteForce {
	b := bruteForce{points: points}
	if tile <= 0 || len(points) < quantMinPoints {
		return b
	}
	qp := newQuantParams(points, len(points[0]))
	if !qp.usable {
		return b
	}
	st := qp.stride
	rows := make([]uint8, len(points)*st)
	for j, p := range points {
		if !qp.encode(p, rows[j*st:(j+1)*st]) {
			// Build rows always encode; if one somehow does not, the
			// bound's premise is void — keep the plain scan.
			return b
		}
	}
	b.codes = &bruteCodes{qp: qp, rows: rows, tile: min(tile, quantTileMax)}
	return b
}

func (b bruteForce) Len() int { return len(b.points) }

// KNNInto implements Index by one early-exit scan over every point.
func (b bruteForce) KNNInto(i, k int, s *Scratch) ([]int, []float64) {
	checkK(k)
	if c := b.codes; c != nil {
		var tested, rejected int64
		s.nn, tested, rejected = scanTiles(b.points, i, c.qp, c.rows, nil, c.tile, emptyList(s.nn, k), k, &s.tiles)
		c.queries.Add(1)
		c.qcand.Add(tested)
		c.qrej.Add(rejected)
		return s.drain()
	}
	s.nn = scanRange(b.points, i, 0, len(b.points), emptyList(s.nn, k), k)
	return s.drain()
}

// scanRange is the plain exhaustive scan: it offers rows lo ≤ j < hi,
// j ≠ i, to the list through the early-exit kernel and returns the list.
// A candidate whose partial sum already exceeds the list's radius cannot
// be kept (ties at the radius still complete, so index tie-breaking is
// unaffected).
func scanRange(rows [][]float64, i, lo, hi int, list []neighbor, capacity int) []neighbor {
	q := rows[i]
	radius := listRadius(list, capacity)
	for j := lo; j < hi; j++ {
		if j == i {
			continue
		}
		if d2, within := squaredEuclideanWithin(q, rows[j], radius); within {
			list = insertNeighbor(list, d2, int32(j), capacity)
			radius = listRadius(list, capacity)
		}
	}
	return list
}

// pruneStats returns a coded index's own activity counters (zero for a
// plain one). Every query considers the n−1 other rows, and every one the
// code bound did not reject reached the exact kernel.
func (b bruteForce) pruneStats() PruneStats {
	c := b.codes
	if c == nil {
		return PruneStats{}
	}
	cand := c.queries.Load() * int64(len(b.points)-1)
	rej := c.qrej.Load()
	return PruneStats{
		Indexes:         1,
		Candidates:      cand,
		Scanned:         cand - rej,
		CodeBytes:       c.qp.codeBytes(len(b.points)),
		QuantCandidates: c.qcand.Load(),
		QuantRejected:   rej,
	}
}

// Scratch holds the reusable per-worker state of KNNInto queries: the
// k-nearest list and the result buffers. The zero value is ready to use;
// one scratch must not be shared between concurrent queries. Every buffer
// is sized by k — never by view width — and is fully rewritten before it
// is read, so one scratch serves indexes of any dimensionality back to
// back (pinned by TestScratchReuseAcrossWidths).
type Scratch struct {
	nn   []neighbor
	idx  []int
	dist []float64
	// The quantized prefilter's tile scratch (see scanTiles), living here
	// so the query path stays allocation-free.
	tiles tileScratch
}

// drain copies the list into the scratch's result buffers, already ordered
// by increasing (distance, index), converting squared distances to
// Euclidean.
func (s *Scratch) drain() ([]int, []float64) {
	n := len(s.nn)
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.dist = make([]float64, n)
	}
	idx, dist := s.idx[:n], s.dist[:n]
	for t, nb := range s.nn {
		idx[t] = int(nb.id)
		dist[t] = math.Sqrt(nb.d2)
	}
	return idx, dist
}
