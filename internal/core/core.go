// Package core defines the shared vocabulary of the testbed — the paper's
// Figure 7 pipeline contracts. A Detector assigns outlyingness scores to
// every point of a subspace view; a PointExplainer ranks subspaces
// explaining one point's outlyingness (Beam, RefOut); a Summarizer ranks
// subspaces jointly explaining a set of outliers (LookOut, HiCS). All
// algorithms exchange results as ranked ScoredSubspace lists.
package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"anex/internal/dataset"
	"anex/internal/subspace"
)

// Detector is an unsupervised outlier detector. Scores returns one
// outlyingness score per point of the view, where HIGHER means MORE
// outlying. Detectors whose native score is inverted (ABOD) must negate or
// transform internally so every consumer can assume this orientation.
//
// Every algorithm observes ctx between units of work (points, candidate
// subspaces), so a deadline or cancellation propagates through the whole
// execution stack: a cancelled Scores call returns ctx's error and its
// partial output must be discarded.
type Detector interface {
	// Name identifies the detector in experiment output ("LOF", …).
	Name() string
	// Scores computes an outlyingness score for every point of the view,
	// observing ctx between points. On error the returned slice is invalid.
	Scores(ctx context.Context, v *dataset.View) ([]float64, error)
}

// StatScorer is implemented by detectors (or wrappers) that can answer a
// Scores call together with the population mean and variance of the
// returned distribution. Memoising detectors implement it so that Z-score
// standardisation — recomputed per (point, subspace) by the explainers —
// costs O(1) on a cache hit instead of a fresh O(n) pass over the scores.
// The moments must equal stats.PopulationMeanVariance(scores) bit for bit.
type StatScorer interface {
	// ScoresWithStats is Scores plus the population moments of its result.
	ScoresWithStats(ctx context.Context, v *dataset.View) (scores []float64, mean, variance float64, err error)
}

// PointExplainer ranks the subspaces of the requested dimensionality that
// best explain the outlyingness of a single point.
type PointExplainer interface {
	// Name identifies the explainer in experiment output ("Beam", …).
	Name() string
	// ExplainPoint returns subspaces ranked by how well they explain the
	// outlyingness of point p, best first. targetDim is the requested
	// explanation dimensionality. Cancellation of ctx aborts the search
	// with ctx's error.
	ExplainPoint(ctx context.Context, ds *dataset.Dataset, p, targetDim int) ([]ScoredSubspace, error)
}

// Summarizer ranks the subspaces of the requested dimensionality that
// jointly separate as many of the given outlier points from the inliers as
// possible.
type Summarizer interface {
	// Name identifies the summarizer in experiment output ("LookOut", …).
	Name() string
	// Summarize returns subspaces ranked by collective explanation
	// quality for the given points, best first. Cancellation of ctx aborts
	// the search with ctx's error.
	Summarize(ctx context.Context, ds *dataset.Dataset, points []int, targetDim int) ([]ScoredSubspace, error)
}

// ScoredSubspace pairs a subspace with the score its producer assigned.
// Score semantics are producer-specific (Z-scored outlyingness for Beam,
// t-statistic discrepancy for RefOut, marginal gain for LookOut, contrast
// for HiCS); only the ranking is comparable across producers.
type ScoredSubspace struct {
	Subspace subspace.Subspace
	Score    float64
}

func (s ScoredSubspace) String() string {
	return fmt.Sprintf("%v: %.4f", s.Subspace, s.Score)
}

// SortByScore orders the list by descending score; ties break on the
// canonical subspace key (compared as strings) so results are
// deterministic. The comparator is negative exactly when a precedes b, and
// the stable sort consults nothing else, so NaN scores and exact
// duplicates keep the order a stable sort by that relation gives them.
func SortByScore(list []ScoredSubspace) {
	slices.SortStableFunc(list, func(a, b ScoredSubspace) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		var ka, kb [64]byte
		return bytes.Compare(a.Subspace.AppendKey(ka[:0]), b.Subspace.AppendKey(kb[:0]))
	})
}

// TopK truncates the list to its first k entries (after the caller has
// ordered it); it returns the list unchanged when k ≤ 0 or k ≥ len(list).
func TopK(list []ScoredSubspace, k int) []ScoredSubspace {
	if k <= 0 || k >= len(list) {
		return list
	}
	return list[:k]
}

// Subspaces projects the ranked list onto its subspaces, preserving order.
func Subspaces(list []ScoredSubspace) []subspace.Subspace {
	out := make([]subspace.Subspace, len(list))
	for i, s := range list {
		out[i] = s.Subspace
	}
	return out
}

// ValidateExplainArgs checks the common preconditions of ExplainPoint
// implementations.
func ValidateExplainArgs(ds *dataset.Dataset, p, targetDim int) error {
	if ds == nil {
		return fmt.Errorf("explain: nil dataset")
	}
	if p < 0 || p >= ds.N() {
		return fmt.Errorf("explain: point %d out of range [0, %d)", p, ds.N())
	}
	if targetDim < 1 || targetDim > ds.D() {
		return fmt.Errorf("explain: target dimensionality %d out of range [1, %d]", targetDim, ds.D())
	}
	return nil
}

// ValidateSummarizeArgs checks the common preconditions of Summarize
// implementations.
func ValidateSummarizeArgs(ds *dataset.Dataset, points []int, targetDim int) error {
	if ds == nil {
		return fmt.Errorf("summarize: nil dataset")
	}
	if len(points) == 0 {
		return fmt.Errorf("summarize: no points of interest")
	}
	for _, p := range points {
		if p < 0 || p >= ds.N() {
			return fmt.Errorf("summarize: point %d out of range [0, %d)", p, ds.N())
		}
	}
	if targetDim < 1 || targetDim > ds.D() {
		return fmt.Errorf("summarize: target dimensionality %d out of range [1, %d]", targetDim, ds.D())
	}
	return nil
}
