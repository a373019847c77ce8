package summarize

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/memo"
	"anex/internal/stats"
	"anex/internal/subspace"
)

// HiCS defaults from the paper's experimental settings (Section 3.1).
const (
	DefaultHiCSCandidateCutoff = 400
	DefaultHiCSAlpha           = 0.1
	DefaultHiCSMCIterations    = 100
	DefaultHiCSTopK            = 100
)

// HiCS is the High Contrast Subspaces summariser of Keller et al. (ICDE
// 2012). Unlike the other three algorithms, its subspace search is fully
// decoupled from the outlier detector: it searches stage-wise for subspaces
// whose features are strongly statistically dependent (high contrast,
// estimated by Monte-Carlo slice sampling), and uses the detector only to
// rank the subspaces it retrieves against the points of interest.
//
// With FixedDim set (the paper's HiCS_FX variant) the search stops at the
// requested dimensionality and only final-stage subspaces are returned,
// making results comparable with LookOut's.
type HiCS struct {
	// Detector ranks the retrieved subspaces; it plays no role in the
	// search itself.
	Detector core.Detector
	// CandidateCutoff is the number of candidates kept per stage; zero
	// means 400.
	CandidateCutoff int
	// Alpha is the expected conditional-sample fraction of the Monte-Carlo
	// slice test; zero means 0.1.
	Alpha float64
	// MCIterations is the number of Monte-Carlo iterations per subspace;
	// zero means 100.
	MCIterations int
	// Test selects Welch (default) or Kolmogorov–Smirnov contrast.
	Test ContrastTest
	// FixedDim selects the HiCS_FX variant: stop at the target
	// dimensionality and return only subspaces of exactly that size.
	FixedDim bool
	// TopK bounds the returned list; zero means 100.
	TopK int
	// Seed makes the Monte-Carlo sampling deterministic.
	Seed int64
	// RankByMean ranks the retrieved subspaces by the MEAN standardised
	// score of the points of interest instead of the maximum. The default
	// maximum matches summarization semantics (see rank); the mean is
	// kept for ablation — it drowns subspaces relevant to small groups.
	RankByMean bool
	// Searches, when non-nil, shares Summarize's contrast search with
	// every other HiCS holding the same cache: the search ignores the
	// detector, so HiCS instances that differ only in Detector, TopK or
	// RankByMean run it once per dataset, and one run serves every target
	// dimensionality up to its depth. The first Summarize of a key pays for
	// the search; the others wait for it or read it back, so their wall
	// time covers ranking only. Nil runs the search on every call.
	Searches *SearchCache
}

// SearchCache holds finished HiCS contrast searches (see HiCS.Searches),
// keyed by the dataset's identity and every parameter the search reads
// except the target dimensionality. A search to dimensionality D yields
// the result at every target dim ≤ D along the way — the run to dim k is
// exactly the first k−1 stages of the run to D, with the same random draws
// — so the cache runs each search once, to the deepest dimensionality its
// callers will ask for, and serves each dim from that run. Concurrent
// Summarize calls with one key run a single search; a caller whose context
// is cancelled mid-search leaves no entry, and callers waiting on it run
// the search themselves. Safe for concurrent use.
type SearchCache struct {
	memo   *memo.Cache[[][]core.ScoredSubspace]
	maxDim int
}

// searchCacheBytes bounds a SearchCache. One entry is a cutoff-long list
// of small subspaces per dimensionality — tens of KiB at the paper's
// settings — so the bound only matters to a cache shared far beyond one
// grid.
const searchCacheBytes = 64 << 20

// NewSearchCache returns an empty search cache whose searches run to
// maxDim, the largest target dimensionality its callers will ask for. A
// caller asking for more than a resident search holds re-runs the search
// to its own dimensionality and replaces the entry.
func NewSearchCache(maxDim int) *SearchCache {
	// An element is a 24-byte subspace header, an 8-byte score and 8 bytes
	// per feature.
	size := func(byDim [][]core.ScoredSubspace) int64 {
		var b int64
		for _, list := range byDim {
			b += int64(len(list)) * 32
			for _, s := range list {
				b += int64(len(s.Subspace)) * 8
			}
		}
		return b
	}
	return &SearchCache{memo: memo.New(searchCacheBytes, size), maxDim: maxDim}
}

// NewHiCS returns a HiCS summariser with the paper's settings.
func NewHiCS(det core.Detector, seed int64) *HiCS {
	return &HiCS{Detector: det, Seed: seed}
}

// NewHiCSFX returns the fixed-dimensionality HiCS_FX variant.
func NewHiCSFX(det core.Detector, seed int64) *HiCS {
	return &HiCS{Detector: det, Seed: seed, FixedDim: true}
}

func (h *HiCS) Name() string {
	if h.FixedDim {
		return "HiCS_FX"
	}
	return "HiCS"
}

func (h *HiCS) cutoff() int {
	if h.CandidateCutoff <= 0 {
		return DefaultHiCSCandidateCutoff
	}
	return h.CandidateCutoff
}

func (h *HiCS) alpha() float64 {
	if h.Alpha <= 0 || h.Alpha >= 1 {
		return DefaultHiCSAlpha
	}
	return h.Alpha
}

func (h *HiCS) mcIterations() int {
	if h.MCIterations <= 0 {
		return DefaultHiCSMCIterations
	}
	return h.MCIterations
}

func (h *HiCS) topK() int {
	if h.TopK <= 0 {
		return DefaultHiCSTopK
	}
	return h.TopK
}

// Summarize searches high-contrast subspaces up to targetDim and returns
// them ranked for the given points of interest by the detector. Both the
// contrast search and the ranking observe ctx between subspaces.
func (h *HiCS) Summarize(ctx context.Context, ds *dataset.Dataset, points []int, targetDim int) ([]core.ScoredSubspace, error) {
	if err := core.ValidateSummarizeArgs(ds, points, targetDim); err != nil {
		return nil, fmt.Errorf("hics: %w", err)
	}
	if h.Detector == nil {
		return nil, fmt.Errorf("hics: nil detector")
	}
	if targetDim < 2 {
		return nil, fmt.Errorf("hics: target dimensionality must be ≥ 2, got %d", targetDim)
	}
	candidates, err := h.search(ctx, ds, targetDim)
	if err != nil {
		return nil, err
	}
	ranked, err := h.rank(ctx, ds, points, candidates)
	if err != nil {
		return nil, err
	}
	return core.TopK(ranked, h.topK()), nil
}

// search runs the contrast search up to targetDim, through h.Searches when
// set. The returned list may be shared with other callers and must not be
// modified.
func (h *HiCS) search(ctx context.Context, ds *dataset.Dataset, targetDim int) ([]core.ScoredSubspace, error) {
	if h.Searches == nil {
		return h.SearchContrastSubspaces(ctx, ds, targetDim)
	}
	key := fmt.Sprintf("%s|seed=%d|cutoff=%d|alpha=%v|mc=%d|test=%d|fixed=%t",
		ds.SourceKey(), h.Seed, h.cutoff(), h.alpha(), h.mcIterations(), h.Test, h.FixedDim)
	deep := func(byDim [][]core.ScoredSubspace) bool { return len(byDim) >= targetDim-1 }
	byDim, err := h.Searches.memo.Get(ctx, key, deep, func(ctx context.Context) ([][]core.ScoredSubspace, error) {
		return h.searchByDim(ctx, ds, max(targetDim, h.Searches.maxDim))
	})
	if err != nil {
		return nil, err
	}
	return byDim[targetDim-2], nil
}

// SearchContrastSubspaces runs the detector-independent part of HiCS: the
// stage-wise search for high-contrast subspaces up to maxDim. Results carry
// the contrast as score, best first. Exposed separately so the contrast
// search can be benchmarked and reused without a detector. The search
// observes ctx between contrast computations, so cancellation aborts with
// ctx's error.
func (h *HiCS) SearchContrastSubspaces(ctx context.Context, ds *dataset.Dataset, maxDim int) ([]core.ScoredSubspace, error) {
	byDim, err := h.searchByDim(ctx, ds, maxDim)
	if err != nil {
		return nil, err
	}
	return byDim[len(byDim)-1], nil
}

// searchByDim runs the contrast search up to maxDim and returns its result
// at every target dimensionality on the way: byDim[k-2] is what a search
// to dim k returns. The lists are capacity-capped, so appending to one
// never writes into another.
func (h *HiCS) searchByDim(ctx context.Context, ds *dataset.Dataset, maxDim int) ([][]core.ScoredSubspace, error) {
	rng := rand.New(rand.NewSource(h.Seed))
	est := newContrastEstimator(ds, h.alpha(), h.mcIterations(), h.Test, rng)
	cutoff := h.cutoff()
	done := ctx.Done()

	// Stage 1: all 2d subspaces, exhaustively.
	var stage []core.ScoredSubspace
	enum := subspace.NewEnumerator(ds.D(), 2)
	for s := enum.Next(); s != nil; s = enum.Next() {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		sub := s.Clone()
		stage = append(stage, core.ScoredSubspace{Subspace: sub, Score: est.contrast(sub)})
	}
	core.SortByScore(stage)
	stage = core.TopK(stage, cutoff)

	global := make([]core.ScoredSubspace, len(stage))
	copy(global, stage)
	byDim := [][]core.ScoredSubspace{global}

	// Later stages: extend the high-contrast candidates by one feature.
	for dim := 3; dim <= maxDim; dim++ {
		seen := make(map[string]bool)
		var next []core.ScoredSubspace
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
				if done != nil {
					select {
					case <-done:
						return nil, ctx.Err()
					default:
					}
				}
				next = append(next, core.ScoredSubspace{Subspace: cand, Score: est.contrast(cand)})
			}
		}
		core.SortByScore(next)
		stage = core.TopK(next, cutoff)
		if h.FixedDim {
			byDim = append(byDim, stage[:len(stage):len(stage)])
			continue
		}
		// Keller et al.'s redundancy pruning: drop a subspace when a kept
		// superset has strictly higher contrast.
		global = pruneDominated(append(global, stage...))
		core.SortByScore(global)
		global = core.TopK(global, cutoff)
		byDim = append(byDim, global[:len(global):len(global)])
	}
	return byDim, nil
}

// pruneDominated removes subspaces dominated by a superset with higher
// contrast.
func pruneDominated(list []core.ScoredSubspace) []core.ScoredSubspace {
	out := make([]core.ScoredSubspace, 0, len(list))
	for i, s := range list {
		dominated := false
		for j, t := range list {
			if i == j {
				continue
			}
			if t.Subspace.Dim() > s.Subspace.Dim() && t.Subspace.ContainsAll(s.Subspace) && t.Score > s.Score {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	return out
}

// rank orders the retrieved subspaces by the MAXIMUM standardised detector
// score any point of interest attains in them — the paper's "HiCS employs a
// detector to rank the retrieved subspaces". The maximum (rather than the
// mean) matches the summarization semantics of the testbed: a subspace is a
// good summary member when it maximally exposes at least one of the points,
// even if it explains only a few of them — exactly LookOut's coverage
// objective. A mean would drown subspaces relevant to small outlier groups.
func (h *HiCS) rank(ctx context.Context, ds *dataset.Dataset, points []int, candidates []core.ScoredSubspace) ([]core.ScoredSubspace, error) {
	out := make([]core.ScoredSubspace, 0, len(candidates))
	for _, c := range candidates {
		scores, err := h.Detector.Scores(ctx, ds.View(c.Subspace))
		if err != nil {
			return nil, err
		}
		z := stats.ZScores(scores)
		var score float64
		if h.RankByMean {
			for _, p := range points {
				score += z[p]
			}
			score /= float64(len(points))
		} else {
			score = math.Inf(-1)
			for _, p := range points {
				if z[p] > score {
					score = z[p]
				}
			}
		}
		out = append(out, core.ScoredSubspace{Subspace: c.Subspace, Score: score})
	}
	core.SortByScore(out)
	return out, nil
}

var _ core.Summarizer = (*HiCS)(nil)
