package detector

import (
	"context"
	"math"

	"anex/internal/dataset"
	"anex/internal/neighbors"
	"anex/internal/parallel"
)

// DefaultABODK is the neighbourhood size used throughout the paper's
// experiments (Section 3.1).
const DefaultABODK = 10

// FastABOD is the fast variant of the Angle-Based Outlier Detector of
// Kriegel et al. (KDD 2008): instead of all point pairs (O(n³)) it computes
// the variance of the distance-weighted angle spectrum over the k nearest
// neighbours only (O(k²·n) after the O(n²) neighbourhood computation).
//
// The native ABOF value is SMALL for outliers (their neighbours lie in
// similar directions); Scores therefore returns the NEGATED ABOF so that,
// per the core.Detector contract, higher means more outlying.
type FastABOD struct {
	// K is the neighbourhood size; zero means DefaultABODK.
	K int
	// Workers bounds the goroutines of the per-point kNN and angle-spectrum
	// phases; values ≤ 1 (including the zero value) keep scoring serial.
	// Results are identical at any worker count.
	Workers int
	// Neighbors, when non-nil, answers the kNN phase through the shared
	// neighbourhood plane (prefix-sliced to this detector's k); results
	// are bit-identical either way.
	Neighbors *neighbors.Plane
}

// NewFastABOD returns a Fast ABOD detector with neighbourhood size k
// (0 → default 10) wired to the process-wide shared neighbourhood plane.
func NewFastABOD(k int) *FastABOD {
	a := &FastABOD{K: k, Neighbors: neighbors.Shared()}
	a.Neighbors.RegisterK(a.k())
	return a
}

// SetNeighbors injects the neighbourhood plane (nil disables sharing) and
// registers this detector's k with it.
func (a *FastABOD) SetNeighbors(p *neighbors.Plane) {
	a.Neighbors = p
	p.RegisterK(a.k())
}

func (a *FastABOD) Name() string { return "FastABOD" }

func (a *FastABOD) k() int {
	if a.K <= 0 {
		return DefaultABODK
	}
	return a.K
}

// Scores computes −ABOF for every point of the view. K values ≥ n are
// clamped to n−1 (the complete neighbourhood), so degenerate
// parameterisations degrade instead of indexing out of bounds.
func (a *FastABOD) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	nnIdx, _, m, stride, err := knnView(ctx, "FastABOD", v, a.Neighbors, a.k(), 2, a.Workers)
	if err != nil {
		return nil, err
	}
	n := v.N()
	scores := make([]float64, n)
	if m == 0 {
		// No angle pairs exist; everything is equally (non-)outlying.
		return scores, nil
	}
	points, dim := v.Points(), v.Dim()
	// One pair of difference-vector scratch buffers per worker shard: the
	// O(k²) angle accumulation per point is independent across points.
	shards := parallel.ShardCount(a.Workers, n)
	scratchA := make([][]float64, shards)
	scratchB := make([][]float64, shards)
	for s := range scratchA {
		scratchA[s] = make([]float64, dim)
		scratchB[s] = make([]float64, dim)
	}
	err = parallel.ForEachShard(ctx, a.Workers, n, func(shard, i int) {
		scores[i] = negABOF(points, i, nnIdx[i*stride:i*stride+m], scratchA[shard], scratchB[shard])
	})
	if err != nil {
		return nil, err
	}
	floorSentinels(scores, scores)
	return scores, nil
}

// negABOF is FastABOD's per-point arithmetic, shared by Scores and
// ScoresWindow: −ABOF of points[i] over its neighbours nbrs, with da and db
// as difference-vector scratch of the points' dimension. A point with
// fewer than two defined angles (duplicated k times over) gets the −Inf
// sentinel that floorSentinels replaces.
func negABOF(points [][]float64, i int, nbrs []int32, da, db []float64) float64 {
	p, dim := points[i], len(da)
	// Welford accumulation of the weighted angle statistic
	// f(x1,x2) = <x1−p, x2−p> / (|x1−p|² · |x2−p|²)
	// over all neighbour pairs.
	var mean, m2 float64
	var count int
	for s := 0; s < len(nbrs); s++ {
		ps := points[int(nbrs[s])]
		var na float64
		for d := 0; d < dim; d++ {
			da[d] = ps[d] - p[d]
			na += da[d] * da[d]
		}
		if na == 0 {
			continue // duplicate of p; angle undefined
		}
		for t := s + 1; t < len(nbrs); t++ {
			pt := points[int(nbrs[t])]
			var nb, dot float64
			for d := 0; d < dim; d++ {
				db[d] = pt[d] - p[d]
				nb += db[d] * db[d]
				dot += da[d] * db[d]
			}
			if nb == 0 {
				continue
			}
			val := dot / (na * nb)
			count++
			delta := val - mean
			mean += delta / float64(count)
			m2 += delta * (val - mean)
		}
	}
	if count < 2 {
		// Point duplicated k times over: treat as maximally inlying.
		return math.Inf(-1)
	}
	return -(m2 / float64(count)) // population variance of the spectrum
}

// floorSentinels copies raw into out (which may alias it), replacing the
// −Inf sentinels with the minimum finite score so that downstream
// statistics stay finite. The minimum is global, so this is a whole-view
// pass even when only some raw scores were recomputed.
func floorSentinels(raw, out []float64) {
	minFinite := math.Inf(1)
	for _, s := range raw {
		if !math.IsInf(s, -1) && s < minFinite {
			minFinite = s
		}
	}
	if math.IsInf(minFinite, 1) {
		minFinite = 0
	}
	for i, s := range raw {
		if math.IsInf(s, -1) {
			out[i] = minFinite
		} else {
			out[i] = s
		}
	}
}
