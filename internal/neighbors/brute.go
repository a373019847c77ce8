package neighbors

import (
	"math"
	"sync/atomic"
)

// bruteForce is an exhaustive-scan index: O(n) per query with a k-bounded
// max-heap. The scan early-exits each candidate's distance accumulation
// against the current prune radius once the heap is full, which prunes most
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
	s.h.reset(k)
	if c := b.codes; c != nil {
		tested, rejected := scanTiles(b.points, i, c.qp, c.rows, nil, c.tile, &s.h, &s.tiles)
		c.queries.Add(1)
		c.qcand.Add(tested)
		c.qrej.Add(rejected)
		return s.drain()
	}
	scanRange(b.points, i, 0, len(b.points), &s.h)
	return s.drain()
}

// scanRange is the plain exhaustive scan: it offers rows lo ≤ j < hi,
// j ≠ i, to h through the early-exit kernel. Once the heap is full, its max
// is the prune radius: a candidate whose partial sum already exceeds it
// cannot be kept (ties at the radius still complete, so index
// tie-breaking is unaffected).
func scanRange(rows [][]float64, i, lo, hi int, h *boundedHeap) {
	q := rows[i]
	for j := lo; j < hi; j++ {
		if j == i {
			continue
		}
		d2, within := squaredEuclideanWithin(q, rows[j], h.top())
		if within {
			h.push(j, d2)
		}
	}
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
// k-bounded heap and the result buffers. The zero value is ready to use;
// one scratch must not be shared between concurrent queries. Every buffer
// is sized by k — never by view width — and is fully rewritten before it
// is read, so one scratch serves indexes of any dimensionality back to
// back (pinned by TestScratchReuseAcrossWidths).
type Scratch struct {
	h    boundedHeap
	idx  []int
	dist []float64
	// The quantized prefilter's tile scratch (see scanTiles), living here
	// so the query path stays allocation-free.
	tiles tileScratch
}

// NewScratch returns an empty query scratch.
func NewScratch() *Scratch { return &Scratch{} }

// drain empties the heap into the scratch's result buffers, ordered by
// increasing (distance, index), converting squared distances to Euclidean.
// Popping the lexicographic maximum into the back slot yields exactly the
// ascending order the former sort.Slice produced — without its reflection
// overhead or allocations.
func (s *Scratch) drain() ([]int, []float64) {
	n := s.h.len()
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.dist = make([]float64, n)
	}
	idx, dist := s.idx[:n], s.dist[:n]
	for m := n - 1; m >= 0; m-- {
		i, d2 := s.h.popMax()
		idx[m] = i
		dist[m] = math.Sqrt(d2)
	}
	return idx, dist
}

// boundedHeap is a max-heap over (squared distance, index) pairs, ordered
// lexicographically and bounded at capacity k: pushing onto a full heap
// replaces the current maximum when the new pair is smaller. The index
// tie-break makes the kept k-set independent of insertion order, so the
// KD-tree and the brute-force scan return identical neighbours even with
// duplicated points.
type boundedHeap struct {
	k    int
	idx  []int
	dist []float64
}

// reset prepares the heap for a query of size k, reusing the backing
// arrays of previous queries when they are large enough.
func (h *boundedHeap) reset(k int) {
	h.k = k
	if cap(h.idx) < k {
		h.idx = make([]int, 0, k)
		h.dist = make([]float64, 0, k)
		return
	}
	h.idx = h.idx[:0]
	h.dist = h.dist[:0]
}

// greater reports whether element a orders after element b.
func (h *boundedHeap) greater(a, b int) bool {
	if h.dist[a] != h.dist[b] {
		return h.dist[a] > h.dist[b]
	}
	return h.idx[a] > h.idx[b]
}

func (h *boundedHeap) len() int { return len(h.idx) }

// top returns the current maximum distance, or +Inf when not yet full —
// which doubles as the prune radius for KD-tree search and the brute-force
// early-exit scan.
func (h *boundedHeap) top() float64 {
	if len(h.dist) < h.k {
		return math.Inf(1)
	}
	return h.dist[0]
}

func (h *boundedHeap) push(i int, d float64) {
	if len(h.idx) < h.k {
		h.idx = append(h.idx, i)
		h.dist = append(h.dist, d)
		h.up(len(h.idx) - 1)
		return
	}
	if d > h.dist[0] || (d == h.dist[0] && i > h.idx[0]) {
		return
	}
	h.idx[0], h.dist[0] = i, d
	h.down(0)
}

// popMax removes and returns the heap's current lexicographic maximum
// (squared distance, index). Repeated popMax into the back of a buffer is
// the one ascending-order drain shared by the scratch query path and the
// window engine's list rebuilds, so both emit the identical
// (distance, index) total order. Caller guarantees a non-empty heap.
func (h *boundedHeap) popMax() (i int, d2 float64) {
	i, d2 = h.idx[0], h.dist[0]
	last := h.len() - 1
	h.idx[0], h.dist[0] = h.idx[last], h.dist[last]
	h.idx, h.dist = h.idx[:last], h.dist[:last]
	if last > 0 {
		h.down(0)
	}
	return i, d2
}

func (h *boundedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.greater(i, parent) {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *boundedHeap) down(i int) {
	n := len(h.dist)
	for {
		largest := i
		if l := 2*i + 1; l < n && h.greater(l, largest) {
			largest = l
		}
		if r := 2*i + 2; r < n && h.greater(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}

func (h *boundedHeap) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.dist[a], h.dist[b] = h.dist[b], h.dist[a]
}
