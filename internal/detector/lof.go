package detector

import (
	"context"

	"anex/internal/dataset"
	"anex/internal/neighbors"
)

// DefaultLOFK is the neighbourhood size used throughout the paper's
// experiments (Section 3.1).
const DefaultLOFK = 15

// LOF is the Local Outlier Factor detector of Breunig et al. (SIGMOD 2000).
// It compares each point's local reachability density with that of its
// k nearest neighbours; inliers score ≈ 1 and outliers substantially more.
type LOF struct {
	// K is the neighbourhood size; zero means DefaultLOFK.
	K int
	// Workers bounds the goroutines of the per-point kNN phase; values ≤ 1
	// (including the zero value) keep scoring serial. Results are identical
	// at any worker count.
	Workers int
	// Neighbors, when non-nil, answers the kNN phase through the shared
	// neighbourhood plane: one computation at the plane's kmax per
	// (dataset, subspace), prefix-sliced to this detector's k and shared
	// with every other detector on the same plane. Results are
	// bit-identical either way; nil always uses the private per-view index.
	Neighbors *neighbors.Plane
}

// NewLOF returns a LOF detector with neighbourhood size k (0 → default 15)
// wired to the process-wide shared neighbourhood plane.
func NewLOF(k int) *LOF {
	l := &LOF{K: k, Neighbors: neighbors.Shared()}
	l.Neighbors.RegisterK(l.k())
	return l
}

// SetNeighbors injects the neighbourhood plane (nil disables sharing) and
// registers this detector's k with it — the hook GridSpec.Plane uses to
// wire one plane across all cells.
func (l *LOF) SetNeighbors(p *neighbors.Plane) {
	l.Neighbors = p
	p.RegisterK(l.k())
}

func (l *LOF) Name() string { return "LOF" }

func (l *LOF) k() int {
	if l.K <= 0 {
		return DefaultLOFK
	}
	return l.K
}

// Scores computes the LOF score of every point in the view. With n points
// the complexity is O(n²) for the neighbourhood computation (O(n log n)
// expected with the KD-tree on low-dimensional views) plus O(n·k) for the
// density aggregation. K values ≥ n are clamped to n−1 (every other point
// is a neighbour), so degenerate parameterisations degrade instead of
// indexing out of bounds.
func (l *LOF) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	idx, dist, m, stride, err := knnView(ctx, "LOF", v, l.Neighbors, l.k(), 1, l.Workers)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, v.N())
	if m == 0 {
		// A single point has no neighbours; call it a perfect inlier.
		scores[0] = 1
		return scores, nil
	}
	lofScores(scores, make([]float64, len(scores)), idx, dist, m, stride, nil)
	return scores, nil
}

// lofScores is LOF's one arithmetic, shared by Scores and ScoresWindow. It
// reads md neighbours per stride-spaced row of the flat arrays (the plane's
// rows may be wider: they hold kmax neighbours) and writes the scores of
// the points within 2 hops of dirty into out, the densities they need into
// lrd, and leaves every other entry as it found it; a nil dirty scores
// every point. It returns how many scores it wrote.
func lofScores(out, lrd []float64, idx []int32, dist []float64, md, stride int, dirty []bool) int {
	n := len(out)
	// k-distance of each point = distance to its k-th nearest neighbour,
	// read live from the current rows.
	kdist := make([]float64, n)
	for i := range kdist {
		kdist[i] = dist[i*stride+md-1]
	}

	// Local reachability density:
	// lrd(p) = 1 / mean_{o ∈ kNN(p)} max(kdist(o), d(p, o)).
	// Hop 1: it reads i's row and its neighbours' k-distances.
	var lrdDirty []bool
	if dirty != nil {
		lrdDirty = make([]bool, n)
		for i := range lrdDirty {
			lrdDirty[i] = touched(dirty, idx, i, md, stride)
		}
	}
	for i := 0; i < n; i++ {
		if lrdDirty != nil && !lrdDirty[i] {
			continue
		}
		var sum float64
		row := i * stride
		for j, o := range idx[row : row+md] {
			reach := dist[row+j]
			if kdist[o] > reach {
				reach = kdist[o]
			}
			sum += reach
		}
		mean := sum / float64(md)
		if mean == 0 {
			// Duplicate points: infinite density, representable as a
			// large finite value to keep downstream arithmetic clean.
			lrd[i] = maxDensity
		} else {
			lrd[i] = 1 / mean
		}
	}

	// LOF(p) = mean_{o ∈ kNN(p)} lrd(o) / lrd(p).
	// Hop 2: it reads i's lrd and its neighbours' lrds.
	rescored := 0
	for i := 0; i < n; i++ {
		if !touched(lrdDirty, idx, i, md, stride) {
			continue
		}
		var sum float64
		for _, o := range idx[i*stride : i*stride+md] {
			sum += lrd[o]
		}
		out[i] = sum / (float64(md) * lrd[i])
		rescored++
	}
	return rescored
}

// maxDensity caps the local reachability density of duplicated points.
const maxDensity = 1e12
