package synth

import (
	"context"
	"fmt"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/stats"
	"anex/internal/subspace"
)

// DeriveTopSubspaceGroundTruth reproduces the ground-truth methodology the
// paper applies to the real datasets (Section 3.2): for every explanation
// dimensionality in dims it scores EVERY subspace of that dimensionality
// with the detector and keeps, per outlier, the top-scored subspace. Each
// outlier thus receives one relevant subspace per dimensionality.
//
// Per-point scores are Z-score standardised within each subspace before
// comparison — the same dimensionality-bias correction the explainers apply
// (Section 2.2) — so the derived ground truth and the explainers share one
// notion of "the subspace where this point deviates most".
//
// The search is exhaustive — C(D, k) detector runs per dimensionality — so
// callers should bound D and dims appropriately (the paper uses 2–4d over
// 23–31 features). Cancelling ctx aborts the sweep with ctx's error.
func DeriveTopSubspaceGroundTruth(ctx context.Context, ds *dataset.Dataset, outliers []int, dims []int, det core.Detector) (*dataset.GroundTruth, error) {
	if len(outliers) == 0 {
		return nil, fmt.Errorf("ground truth %q: no outliers", ds.Name())
	}
	if det == nil {
		return nil, fmt.Errorf("ground truth %q: nil detector", ds.Name())
	}
	relevant := make(map[int][]subspace.Subspace, len(outliers))
	for _, dim := range dims {
		if dim < 1 || dim > ds.D() {
			return nil, fmt.Errorf("ground truth %q: dimensionality %d out of range [1, %d]", ds.Name(), dim, ds.D())
		}
		best := make(map[int]float64, len(outliers))
		bestSub := make(map[int]subspace.Subspace, len(outliers))
		enum := subspace.NewEnumerator(ds.D(), dim)
		for s := enum.Next(); s != nil; s = enum.Next() {
			scores, err := det.Scores(ctx, ds.View(s))
			if err != nil {
				return nil, fmt.Errorf("ground truth %q: %w", ds.Name(), err)
			}
			z := stats.ZScores(scores)
			for _, p := range outliers {
				if cur, ok := best[p]; !ok || z[p] > cur {
					best[p] = z[p]
					bestSub[p] = s.Clone()
				}
			}
		}
		for _, p := range outliers {
			relevant[p] = append(relevant[p], bestSub[p])
		}
	}
	return dataset.NewGroundTruth(relevant), nil
}
