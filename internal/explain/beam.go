package explain

import (
	"context"
	"fmt"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/parallel"
	"anex/internal/subspace"
)

// Beam defaults from the paper's experimental settings (Section 3.1).
const (
	DefaultBeamWidth = 100
	DefaultBeamTopK  = 100
)

// Beam is the stage-wise greedy point explainer of Nguyen et al. (DMKD
// 2016). Stage 1 scores every 2d subspace exhaustively for the point of
// interest; each later stage extends the best subspaces of the previous
// stage by one feature, up to the requested dimensionality. Two lists are
// maintained: the per-stage list driving the search, and a global list of
// the best subspaces seen across stages.
//
// With FixedDim set (the paper's Beam_FX variant) only final-stage
// subspaces — i.e. of exactly the requested dimensionality — are returned,
// making results comparable with RefOut's.
type Beam struct {
	// Detector supplies the outlyingness criterion.
	Detector core.Detector
	// Width is the beam width W (subspaces kept per stage); zero means 100.
	Width int
	// TopK bounds the returned list; zero means 100.
	TopK int
	// FixedDim selects the Beam_FX variant: return only subspaces of
	// exactly the target dimensionality.
	FixedDim bool
	// Score overrides the subspace scoring function; nil means the
	// paper's Z-score standardisation.
	Score ScoreFunc
	// Workers bounds the goroutines scoring each stage's candidate
	// subspaces; values ≤ 1 (including the zero value) keep stage scoring
	// serial. Candidates are scored independently into indexed slots, so
	// results are identical at any worker count.
	Workers int
}

// NewBeam returns a Beam explainer with the paper's settings.
func NewBeam(det core.Detector) *Beam { return &Beam{Detector: det} }

// NewBeamFX returns the fixed-dimensionality Beam_FX variant.
func NewBeamFX(det core.Detector) *Beam { return &Beam{Detector: det, FixedDim: true} }

func (b *Beam) Name() string {
	if b.FixedDim {
		return "Beam_FX"
	}
	return "Beam"
}

func (b *Beam) width() int {
	if b.Width <= 0 {
		return DefaultBeamWidth
	}
	return b.Width
}

func (b *Beam) topK() int {
	if b.TopK <= 0 {
		return DefaultBeamTopK
	}
	return b.TopK
}

func (b *Beam) score() ScoreFunc {
	if b.Score == nil {
		return pointZScore
	}
	return b.Score
}

// ExplainPoint searches subspaces up to targetDim that explain the
// outlyingness of point p, best first. The search observes ctx between
// candidate subspaces, so cancellation aborts with ctx's error.
func (b *Beam) ExplainPoint(ctx context.Context, ds *dataset.Dataset, p, targetDim int) ([]core.ScoredSubspace, error) {
	if err := core.ValidateExplainArgs(ds, p, targetDim); err != nil {
		return nil, fmt.Errorf("beam: %w", err)
	}
	if b.Detector == nil {
		return nil, fmt.Errorf("beam: nil detector")
	}
	if targetDim < 2 {
		return nil, fmt.Errorf("beam: target dimensionality must be ≥ 2, got %d", targetDim)
	}
	score := b.score()
	w := b.width()

	// Stage 1: score all 2d subspaces exhaustively. Candidate enumeration
	// is cheap and stays serial (a deterministic list); the detector-bound
	// scoring fans out over the stage worker budget.
	cands := stageCandidates(ds.D(), 2)
	stage, err := b.scoreStage(ctx, ds, cands, p, score)
	if err != nil {
		return nil, err
	}
	core.SortByScore(stage)
	stage = core.TopK(stage, w)
	global := mergeGlobal(nil, stage, w)

	// Later stages: extend the stage list one feature at a time.
	for dim := 3; dim <= targetDim; dim++ {
		seen := make(map[string]bool)
		cands = cands[:0]
		for _, cur := range stage {
			for f := 0; f < ds.D(); f++ {
				if cur.Subspace.Contains(f) {
					continue
				}
				cand := cur.Subspace.With(f)
				key := cand.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				cands = append(cands, cand)
			}
		}
		next, err := b.scoreStage(ctx, ds, cands, p, score)
		if err != nil {
			return nil, err
		}
		core.SortByScore(next)
		stage = core.TopK(next, w)
		global = mergeGlobal(global, stage, w)
	}

	if b.FixedDim {
		out := make([]core.ScoredSubspace, len(stage))
		copy(out, stage)
		return core.TopK(out, b.topK()), nil
	}
	return core.TopK(global, b.topK()), nil
}

// stageCandidates enumerates every subspace of exactly dim features over a
// d-feature dataset, in the enumerator's deterministic order. It is the
// candidate universe of one exhaustive sweep — what Beam's stage 1 scores
// (dim 2). dim values outside [1, d] yield an empty list. The candidates
// are carved, capacity-capped, from one backing array.
func stageCandidates(d, dim int) []subspace.Subspace {
	n := int(subspace.Count(d, dim))
	out := make([]subspace.Subspace, 0, n)
	flat := make([]int, 0, n*dim)
	enum := subspace.NewEnumerator(d, dim)
	for s := enum.Next(); s != nil; s = enum.Next() {
		lo := len(flat)
		flat = append(flat, s...)
		out = append(out, subspace.Subspace(flat[lo:len(flat):len(flat)]))
	}
	return out
}

// scoreStage scores every candidate subspace for point p, fanning out over
// the explainer's worker budget. Each candidate writes only its own indexed
// slot, so the returned list is identical at any worker count; on failure
// the first error in candidate order is returned, deterministically.
func (b *Beam) scoreStage(ctx context.Context, ds *dataset.Dataset, cands []subspace.Subspace, p int, score ScoreFunc) ([]core.ScoredSubspace, error) {
	out := make([]core.ScoredSubspace, len(cands))
	errs := make([]error, len(cands))
	ctxErr := parallel.ForEach(ctx, b.Workers, len(cands), func(i int) {
		sc, err := score(ctx, b.Detector, ds, cands[i], p)
		out[i] = core.ScoredSubspace{Subspace: cands[i], Score: sc}
		errs[i] = err
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeGlobal merges the stage list into the global list, keeping the w
// best-scored subspaces across stages.
func mergeGlobal(global, stage []core.ScoredSubspace, w int) []core.ScoredSubspace {
	merged := make([]core.ScoredSubspace, 0, len(global)+len(stage))
	merged = append(merged, global...)
	merged = append(merged, stage...)
	core.SortByScore(merged)
	return core.TopK(merged, w)
}

var _ core.PointExplainer = (*Beam)(nil)
