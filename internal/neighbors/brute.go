package neighbors

import "math"

// bruteForce is an exhaustive-scan index. It holds no state beyond the
// points and scales as O(n) per query with a k-bounded max-heap. The scan
// early-exits each candidate's distance accumulation against the current
// prune radius once the heap is full, which prunes most of the inner-loop
// work on high-dimensional views.
type bruteForce struct {
	points [][]float64
}

// NewBruteForce builds an exhaustive-scan index over the points.
func NewBruteForce(points [][]float64) Index {
	return bruteForce{points: points}
}

func (b bruteForce) Len() int { return len(b.points) }

// KNNInto implements Index by one early-exit scan over every point.
func (b bruteForce) KNNInto(i, k int, s *Scratch) ([]int, []float64) {
	checkK(k)
	q := b.points[i]
	s.h.reset(k)
	for j, p := range b.points {
		if j == i {
			continue
		}
		// Once the heap is full, its max is the prune radius: a candidate
		// whose partial sum already exceeds it cannot be kept (ties at the
		// radius still complete, so index tie-breaking is unaffected).
		d2, within := squaredEuclideanWithin(q, p, s.h.top())
		if !within {
			continue
		}
		s.h.push(j, d2)
	}
	return s.drain()
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
	// Tile scratch of the quantized prefilter (see quant.go): fixed cells
	// sized by quantTileMax, living here so the per-cluster scan pays no
	// per-call zeroing and the query path stays allocation-free.
	qbound [quantTileMax]int64
	qsurv  [quantTileMax]int32
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
