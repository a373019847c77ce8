package neighbors

import "math"

// KDTree is a balanced KD-tree over a fixed point set. Nodes are stored in a
// flat array (implicit pointers) and leaves hold small buckets, which keeps
// construction allocation-light and searches cache-friendly — both matter
// when an explainer builds thousands of per-subspace indexes.
type KDTree struct {
	points     [][]float64
	nodes      []kdNode
	leafPoints []int // point indices, grouped per leaf
	dim        int
}

type kdNode struct {
	// Interior node: splitDim ≥ 0, splitVal is the partition plane,
	// left/right are child node indexes.
	// Leaf node: splitDim == -1, left/right delimit [left, right) in
	// leafPoints.
	splitDim    int
	splitVal    float64
	left, right int
}

const kdLeafSize = 16

// NewKDTree builds a KD-tree over the points. The points are not copied.
func NewKDTree(points [][]float64) *KDTree {
	t := &KDTree{points: points}
	if len(points) == 0 {
		return t
	}
	t.dim = len(points[0])
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t.leafPoints = make([]int, 0, len(points))
	t.build(idx, 0)
	return t
}

// build recursively partitions idx, appending nodes to t.nodes, and returns
// the index of the created node.
func (t *KDTree) build(idx []int, depth int) int {
	nodeID := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{})
	if len(idx) <= kdLeafSize {
		start := len(t.leafPoints)
		t.leafPoints = append(t.leafPoints, idx...)
		t.nodes[nodeID] = kdNode{splitDim: -1, left: start, right: len(t.leafPoints)}
		return nodeID
	}
	// Split on the dimension with the largest spread among the subset —
	// better balance than cycling dimensions on skewed data.
	splitDim := t.widestDim(idx)
	mid := len(idx) / 2
	nthElement(idx, mid, func(a, b int) bool {
		return t.points[a][splitDim] < t.points[b][splitDim]
	})
	splitVal := t.points[idx[mid]][splitDim]
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid:], depth+1)
	t.nodes[nodeID] = kdNode{splitDim: splitDim, splitVal: splitVal, left: left, right: right}
	return nodeID
}

func (t *KDTree) widestDim(idx []int) int {
	best, bestSpread := 0, -1.0
	for d := 0; d < t.dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := t.points[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

// nthElement partially sorts idx so that idx[n] is the element that would be
// at position n in a full sort (introselect via repeated partitioning).
func nthElement(idx []int, n int, less func(a, b int) bool) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		// Median-of-three pivot for resilience on sorted inputs.
		mid := lo + (hi-lo)/2
		if less(idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if less(idx[hi], idx[lo]) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if less(idx[hi], idx[mid]) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := idx[mid]
		idx[mid], idx[hi-1] = idx[hi-1], idx[mid]
		i := lo
		for j := lo; j < hi-1; j++ {
			if less(idx[j], pivot) {
				idx[i], idx[j] = idx[j], idx[i]
				i++
			}
		}
		idx[i], idx[hi-1] = idx[hi-1], idx[i]
		switch {
		case n == i:
			return
		case n < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}

func (t *KDTree) Len() int { return len(t.points) }

// KNNInto implements Index: the k nearest neighbours of indexed point i,
// excluding i.
func (t *KDTree) KNNInto(i, k int, s *Scratch) ([]int, []float64) {
	checkK(k)
	if len(t.points) == 0 {
		return nil, nil
	}
	s.h.reset(k)
	t.search(0, t.points[i], i, &s.h)
	return s.drain()
}

// Query returns the k points nearest to an arbitrary query vector q
// (no exclusion).
func (t *KDTree) Query(q []float64, k int) ([]int, []float64) {
	checkK(k)
	if len(t.points) == 0 {
		return nil, nil
	}
	var s Scratch
	s.h.reset(k)
	t.search(0, q, -1, &s.h)
	idx, dist := s.drain()
	return append([]int(nil), idx...), append([]float64(nil), dist...)
}

func (t *KDTree) search(nodeID int, q []float64, exclude int, h *boundedHeap) {
	node := t.nodes[nodeID]
	if node.splitDim == -1 {
		for _, p := range t.leafPoints[node.left:node.right] {
			if p == exclude {
				continue
			}
			// Same early-exit kernel as the brute-force scan: candidates
			// beyond the prune radius never finish their accumulation.
			if d2, within := squaredEuclideanWithin(q, t.points[p], h.top()); within {
				h.push(p, d2)
			}
		}
		return
	}
	delta := q[node.splitDim] - node.splitVal
	near, far := node.left, node.right
	if delta >= 0 {
		near, far = node.right, node.left
	}
	t.search(near, q, exclude, h)
	// The far side must also be visited on exact ties: a point at exactly
	// the current radius can still win its tie-break on index.
	if delta*delta <= h.top() {
		t.search(far, q, exclude, h)
	}
}

// Depth returns the height of the tree, useful for balance diagnostics.
func (t *KDTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.depth(0)
}

func (t *KDTree) depth(nodeID int) int {
	node := t.nodes[nodeID]
	if node.splitDim == -1 {
		return 1
	}
	l := t.depth(node.left)
	r := t.depth(node.right)
	if r > l {
		l = r
	}
	return l + 1
}

var _ Index = (*KDTree)(nil)
