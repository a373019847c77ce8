package pipeline

import (
	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/explain"
	"anex/internal/summarize"
)

// NamedDetector pairs a detector with its report name.
type NamedDetector struct {
	Name     string
	Detector core.Detector
}

// NewDetectors builds the paper's three detectors with the Section 3.1
// hyper-parameters: LOF (k=15), Fast ABOD (k=10) and Isolation Forest
// (100 trees, ψ=256, 10 averaged repetitions). Wrap them in
// detector.NewCached for effectiveness experiments (scores are
// deterministic per subspace); leave them bare when measuring per-pipeline
// runtime.
func NewDetectors(seed int64) []NamedDetector {
	return []NamedDetector{
		{Name: "LOF", Detector: detector.NewLOF(detector.DefaultLOFK)},
		{Name: "FastABOD", Detector: detector.NewFastABOD(detector.DefaultABODK)},
		{Name: "iForest", Detector: detector.NewIsolationForest(seed)},
	}
}

// Options tunes the explainer hyper-parameters away from the paper's
// defaults; the zero value keeps them (pool 100, widths 100, budget 100,
// HiCS cutoff 400 with 100 Monte-Carlo iterations, top-100 results).
type Options struct {
	BeamWidth       int
	RefOutPoolSize  int
	RefOutWidth     int
	LookOutBudget   int
	HiCSCutoff      int
	HiCSIterations  int
	TopK            int
	UseKSContrast   bool
	RawScores       bool // ablation: disable Z-score standardisation
	BeamVariableDim bool // ablation: plain Beam instead of Beam_FX

	// Workers bounds the goroutines of each pipeline's inner loops (per
	// explained point, per ranked summary subspace, and the explainers'
	// per-stage candidate/pool scoring); values ≤ 1 keep them serial.
	// Inside RunGrid this acts as an explicit override of the automatic
	// worker-budget split.
	Workers int

	// CacheBytes is the byte budget of each cached detector's score memo
	// (see detector.NewCachedBudget); zero selects the generous default.
	CacheBytes int64

	// hicsSearches is the contrast-search cache RunGrid shares among its
	// HiCS cells (see summarize.HiCS.Searches); nil outside a grid.
	hicsSearches *summarize.SearchCache
}

func (o Options) scoreFunc() explain.ScoreFunc {
	if o.RawScores {
		return explain.Raw()
	}
	return explain.ZScored()
}

// PointPipelines builds the paper's point-explanation pipelines for one
// detector: Beam_FX and RefOut (Figure 9 evaluates the fixed-dimensionality
// Beam variant for fairness with RefOut). Each pipeline wraps the detector
// in its own scoring timer, so Result splits runtime into scoring vs.
// search per cell even when the underlying detector (and its cache) is
// shared across the grid.
func PointPipelines(d NamedDetector, seed int64, o Options) []PointPipeline {
	beamTimer := detector.NewTimed(d.Detector)
	beam := &explain.Beam{
		Detector: beamTimer,
		Width:    o.BeamWidth,
		TopK:     o.TopK,
		FixedDim: !o.BeamVariableDim,
		Score:    o.scoreFunc(),
		Workers:  o.Workers,
	}
	refoutTimer := detector.NewTimed(d.Detector)
	refout := &explain.RefOut{
		Detector: refoutTimer,
		PoolSize: o.RefOutPoolSize,
		Width:    o.RefOutWidth,
		TopK:     o.TopK,
		Seed:     seed,
		Score:    o.scoreFunc(),
		Workers:  o.Workers,
	}
	return []PointPipeline{
		{Detector: d.Name, Explainer: beam, Workers: o.Workers, Timer: beamTimer},
		{Detector: d.Name, Explainer: refout, Workers: o.Workers, Timer: refoutTimer},
	}
}

// SummaryPipelines builds the paper's summarization pipelines for one
// detector: LookOut and HiCS_FX (fixed dimensionality for fairness with
// LookOut).
func SummaryPipelines(d NamedDetector, seed int64, o Options) []SummaryPipeline {
	test := summarize.WelchTest
	if o.UseKSContrast {
		test = summarize.KSTest
	}
	lookoutTimer := detector.NewTimed(d.Detector)
	lookout := &summarize.LookOut{
		Detector: lookoutTimer,
		Budget:   o.LookOutBudget,
	}
	hicsTimer := detector.NewTimed(d.Detector)
	hics := &summarize.HiCS{
		Detector:        hicsTimer,
		CandidateCutoff: o.HiCSCutoff,
		MCIterations:    o.HiCSIterations,
		Test:            test,
		FixedDim:        true,
		TopK:            o.TopK,
		Seed:            seed,
		Searches:        o.hicsSearches,
	}
	// The Ranker bypasses the timer: its scoring happens in the evaluation
	// phase, which Duration (and the scoring/search split) excludes.
	return []SummaryPipeline{
		{Detector: d.Name, Summarizer: lookout, Ranker: d.Detector, Workers: o.Workers, Timer: lookoutTimer},
		{Detector: d.Name, Summarizer: hics, Ranker: d.Detector, Workers: o.Workers, Timer: hicsTimer},
	}
}
