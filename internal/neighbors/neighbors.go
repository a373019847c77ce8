// Package neighbors provides the k-nearest-neighbour substrate used by the
// density- and angle-based detectors. Three index implementations are
// provided: exhaustive brute force, a KD-tree that pays off on the
// low-dimensional subspace views that explanation algorithms query by the
// thousands, and a landmark-pruned scan for wide views. NewIndex picks
// between them by size and width.
package neighbors

import (
	"context"
	"fmt"

	"anex/internal/parallel"
)

// Index answers k-nearest-neighbour queries over a fixed point set.
type Index interface {
	// KNNInto returns the indices and Euclidean distances of the k points
	// nearest to point i, excluding i itself, ordered by increasing
	// (distance, index). If fewer than k other points exist, all of them
	// are returned. The slices are owned by the caller's reusable scratch
	// and valid until its next use; a warm scratch makes the query
	// allocation-free.
	KNNInto(i, k int, s *Scratch) (idx []int, dist []float64)
	// Len returns the number of indexed points.
	Len() int
}

// kdTreeMaxDim is the dimensionality above which brute force beats the
// KD-tree: pruning degrades exponentially with dimension, and the paper's
// full-space scoring of 20–100d datasets is exactly the regime where an
// exhaustive scan with tight inner loops wins.
const kdTreeMaxDim = 10

// NewIndex builds the appropriate index for the given points, picked by
// size and width: a KD-tree for low-dimensional data (subspace views), the
// landmark-pruned tier (with its quantized prefilter) for wide views large
// enough to amortise its build, plain brute force otherwise. All three
// return bit-identical neighbour sets; the choice only affects speed. The
// points are not mutated; callers must not mutate them while the index is
// in use.
func NewIndex(points [][]float64) Index {
	if len(points) == 0 {
		return bruteForce{}
	}
	if len(points[0]) <= kdTreeMaxDim && len(points) >= 64 {
		return NewKDTree(points)
	}
	if len(points) >= landmarkMinPoints && len(points[0]) > kdTreeMaxDim {
		return NewLandmarkIndex(points)
	}
	return NewBruteForce(points)
}

// AllKNNFlat returns the complete neighbourhood structure — every indexed
// point's k nearest neighbours — as two flat row-major n×m arrays
// (m = min(k, n−1)): point i's neighbours are idx[i*m : (i+1)*m] with
// distances in the matching dist slots, ascending, index tie-broken. The
// layout and values are bit-identical to the delta engine's AllKNN, so
// consumers (the neighbourhood plane, detector hot loops) handle a single
// shape on every path. The per-point queries are distributed over the
// given number of workers (≤ 1 → serial), each answering through its own
// reusable scratch into its own rows, so results are identical at any
// worker count and the whole structure costs O(1) allocations. Cancellation
// is observed between queries; on a non-nil error the arrays are nil.
func AllKNNFlat(ctx context.Context, ix Index, k, workers int) (idx []int32, dist []float64, m int, err error) {
	n := ix.Len()
	if n == 0 {
		return nil, nil, 0, nil
	}
	checkK(k)
	m = k
	if m > n-1 {
		m = n - 1
	}
	if m == 0 {
		return nil, nil, 0, nil
	}
	idx = make([]int32, n*m)
	dist = make([]float64, n*m)
	scratch := make([]Scratch, parallel.ShardCount(workers, n))
	err = parallel.ForEachShard(ctx, workers, n, func(shard, i int) {
		qi, qd := ix.KNNInto(i, k, &scratch[shard])
		for t, p := range qi {
			idx[i*m+t] = int32(p)
		}
		copy(dist[i*m:(i+1)*m], qd)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return idx, dist, m, nil
}

// SquaredEuclidean returns the squared Euclidean distance between a and b,
// which must have equal length. The accumulation is 4-way unrolled; the
// tail runs element-wise.
func SquaredEuclidean(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination for the unrolled loads
	var sum float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		sum += d0*d0 + d1*d1 + d2*d2 + d3*d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// squaredEuclideanWithin accumulates SquaredEuclidean(a, b) but abandons
// the scan once the partial sum strictly exceeds limit (a monotone bound),
// reporting within=false. When within is true, the returned sum is
// bit-identical to SquaredEuclidean's — the squares are grouped and added
// in exactly the same order — so pruned and unpruned scans keep identical
// neighbour sets.
func squaredEuclideanWithin(a, b []float64, limit float64) (sum float64, within bool) {
	b = b[:len(a)] // bounds-check elimination for the unrolled loads
	i := 0
	// Check the bound every 8 elements, not every 4: in high dimensions
	// distances concentrate, so the partial sum crosses the radius late and
	// a denser data-dependent branch costs more (mispredictions) than the
	// accumulation it could skip.
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		sum += d0*d0 + d1*d1 + d2*d2 + d3*d3
		d0 = a[i+4] - b[i+4]
		d1 = a[i+5] - b[i+5]
		d2 = a[i+6] - b[i+6]
		d3 = a[i+7] - b[i+7]
		sum += d0*d0 + d1*d1 + d2*d2 + d3*d3
		if sum > limit {
			return sum, false
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		sum += d0*d0 + d1*d1 + d2*d2 + d3*d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, sum <= limit
}

func checkK(k int) {
	if k < 1 {
		panic(fmt.Sprintf("neighbors: k must be ≥ 1, got %d", k))
	}
}
