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
//
// A coded index over a subspace view may also carry seeds: the source's
// full-space neighbours, the seed structure of the delta scan too (the
// plane hands it over from its source cache). A seeded query fills its list with the seeds' exact view
// distances before the scan, so the list is full — its radius already an
// upper bound on the true k-th distance — from the first candidate on, and
// the code bound rejects from the first candidate instead of after the k
// rows an unseeded list is filled from.
type bruteForce struct {
	points [][]float64
	codes  *bruteCodes // nil: the plain scan
}

// bruteCodes is a coded index's prefilter state and activity ledger; the
// plane folds the counters into PlaneStats.Prune after each computation.
type bruteCodes struct {
	qp   *quantParams
	rows []uint8 // one padded code row per point, in point order
	// seeds, when non-nil, holds seeds.m full-space neighbours per point
	// (row-major, the plane's cached knnEntry).
	seeds *knnEntry

	queries, qcand, qrej atomic.Int64
}

// NewBruteForce builds a plain exhaustive-scan index over the points — the
// unpruned reference every other index answers bit-identically to.
func NewBruteForce(points [][]float64) Index {
	return bruteForce{points: points}
}

// newBruteForce builds a brute-force index behind the quantized
// prefilter. Views below quantMinPoints rows, or that the code book
// refuses, stay plain.
func newBruteForce(points [][]float64) bruteForce {
	b := bruteForce{points: points}
	if len(points) < quantMinPoints {
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
	b.codes = &bruteCodes{qp: qp, rows: rows}
	return b
}

func (b bruteForce) Len() int { return len(b.points) }

// KNNInto implements Index by one early-exit scan over every point.
func (b bruteForce) KNNInto(i, k int, s *Scratch) ([]int, []float64) {
	checkK(k)
	if c := b.codes; c != nil {
		list, seen := b.seedList(i, k, s)
		var tested, rejected int64
		s.nn, tested, rejected = scanTiles(b.points, i, c.qp, c.rows, nil, seen, list, k)
		c.queries.Add(1)
		c.qcand.Add(tested)
		c.qrej.Add(rejected)
		return s.drain()
	}
	s.nn = scanRange(b.points, i, 0, len(b.points), emptyList(s.nn, k), k)
	return s.drain()
}

// seedList returns query i's starting list and the marks of the rows
// scanTiles must not offer again. Unseeded, that is an empty list and no
// marks. Seeded, it is the list prefilled with the seeds' exact view
// distances — SquaredEuclidean, whose grouping is squaredEuclideanWithin's,
// so a kept value is bit-identical to the one the scan would compute — with
// the query itself and every seed offered marked. Seeds that repeat or
// name the query (a full-space list cut short by non-finite coordinates is
// zero-filled) are offered once or not at all. If fewer than k distinct
// seeds remain, or their distances overflow to +Inf, the list has no
// finite radius to bound a tile with, and the query falls back to the
// unseeded scan.
func (b bruteForce) seedList(i, k int, s *Scratch) ([]neighbor, *rowMarks) {
	list := emptyList(s.nn, k)
	sd := b.codes.seeds
	if sd == nil {
		return list, nil
	}
	seen := &s.marks
	seen.next(len(b.points))
	seen.set(int32(i))
	q := b.points[i]
	for _, j := range sd.idx[i*sd.m : (i+1)*sd.m] {
		if seen.set(j) {
			list = insertNeighbor(list, SquaredEuclidean(q, b.points[j]), j, k)
		}
	}
	if math.IsInf(listRadius(list, k), 1) {
		return list[:0], nil
	}
	return list, seen
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
// plain one). Every query considers the n−1 other rows; each one the code
// bound did not reject — its seeds included — reached the exact kernel.
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
// k-nearest list, the result buffers and the marks of a seeded query. The
// zero value is ready to use; one scratch must not be shared between
// concurrent queries. The list and result buffers are sized by k and the
// marks by the index's row count — never by view width — and every buffer
// is rewritten (or, for the marks, superseded by a fresh generation)
// before it is read, so one scratch serves indexes of any dimensionality
// and size back to back (pinned by TestScratchReuseAcrossWidths).
type Scratch struct {
	nn    []neighbor
	idx   []int
	dist  []float64
	marks rowMarks
}

// rowMarks marks rows for one query at a time: mark[j] == gen says row j
// was already offered to the current query's list, and count says how
// many rows carry the mark. Advancing gen clears every mark in O(1); the
// array grows on demand and is zeroed on the rare wrap-around of gen, so a
// mark left by a query 2³² generations back can never alias the current
// one. The seeded brute-force query and the delta engine's scan share it.
type rowMarks struct {
	mark  []uint32
	gen   uint32
	count int
}

// next starts a new generation over n rows, none of them marked.
func (m *rowMarks) next(n int) {
	if len(m.mark) < n {
		m.mark = make([]uint32, n)
	}
	m.gen++
	if m.gen == 0 {
		clear(m.mark)
		m.gen = 1
	}
	m.count = 0
}

// set marks row j, reporting whether it was unmarked.
func (m *rowMarks) set(j int32) bool {
	if m.mark[j] == m.gen {
		return false
	}
	m.mark[j] = m.gen
	m.count++
	return true
}

// has reports whether row j is marked in the current generation.
func (m *rowMarks) has(j int32) bool { return m.mark[j] == m.gen }

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
