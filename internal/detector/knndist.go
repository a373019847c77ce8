package detector

import (
	"context"

	"anex/internal/dataset"
	"anex/internal/neighbors"
)

// KNNDist is the classic distance-based outlier detector: the score of a
// point is its mean distance to its k nearest neighbours (Angiulli &
// Pizzuti's weighted variant). The paper's testbed deliberately excludes
// distance-based detectors (its cited studies find them dominated by the
// density/angle/isolation families), but the library ships one as a
// baseline so that comparison can itself be reproduced: every explainer
// accepts KNNDist like any other core.Detector.
type KNNDist struct {
	// K is the neighbourhood size; zero means 10.
	K int
	// Workers bounds the goroutines of the per-point kNN phase; values
	// ≤ 1 (including the zero value) keep scoring serial. Results are
	// identical at any worker count.
	Workers int
	// Neighbors, when non-nil, answers the kNN phase through the shared
	// neighbourhood plane (prefix-sliced to this detector's k); results
	// are bit-identical either way.
	Neighbors *neighbors.Plane
}

// DefaultKNNDistK is the default neighbourhood size.
const DefaultKNNDistK = 10

// NewKNNDist returns a mean-kNN-distance detector (0 → k=10) wired to the
// process-wide shared neighbourhood plane.
func NewKNNDist(k int) *KNNDist {
	d := &KNNDist{K: k, Neighbors: neighbors.Shared()}
	d.Neighbors.RegisterK(d.k())
	return d
}

// SetNeighbors injects the neighbourhood plane (nil disables sharing) and
// registers this detector's k with it.
func (d *KNNDist) SetNeighbors(p *neighbors.Plane) {
	d.Neighbors = p
	p.RegisterK(d.k())
}

func (d *KNNDist) Name() string { return "kNN-dist" }

func (d *KNNDist) k() int {
	if d.K <= 0 {
		return DefaultKNNDistK
	}
	return d.K
}

// Scores returns the mean distance of each point to its k nearest
// neighbours (higher = more outlying). K values ≥ n are clamped to n−1.
func (d *KNNDist) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	_, dist, m, stride, err := knnView(ctx, "kNN-dist", v, d.Neighbors, d.k(), 1, d.Workers)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, v.N())
	if m > 0 {
		knnDistScores(scores, dist, m, stride, nil)
	}
	return scores, nil
}

// knnDistScores is kNN-dist's one arithmetic, shared by Scores and
// ScoresWindow: it writes the mean of md neighbour distances (per
// stride-spaced row of dist) into out for every point marked in dirty —
// every point when dirty is nil — and returns how many it wrote.
func knnDistScores(out, dist []float64, md, stride int, dirty []bool) int {
	rescored := 0
	for i := range out {
		if dirty != nil && !dirty[i] {
			continue
		}
		var sum float64
		for _, dd := range dist[i*stride : i*stride+md] {
			sum += dd
		}
		out[i] = sum / float64(md)
		rescored++
	}
	return rescored
}
