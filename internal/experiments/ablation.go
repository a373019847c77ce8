package experiments

import (
	"context"
	"fmt"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/pipeline"
	"anex/internal/summarize"
	"anex/internal/synth"
)

// Ablations runs the design-choice ablations DESIGN.md calls out, on the
// hardest synthetic dataset of the testbed:
//
//  1. Z-score standardisation vs raw detector scores in Beam's subspace
//     scoring (the paper's dimensionality-bias correction).
//  2. Beam_FX (fixed output dimensionality) vs plain Beam (variable).
//  3. Welch vs Kolmogorov–Smirnov contrast in HiCS.
//  4. HiCS output ranking by max vs mean standardised point score.
//  5. iForest with 10-repetition averaging vs a single forest, feeding Beam.
//
// Each row reports MAP and runtime for the two arms at the same
// explanation dimensionality, so both the effectiveness and cost sides of
// the choice are visible.
func (s *Session) Ablations(ctx context.Context) *Table {
	td := s.ablationDataset()
	ds, gt := td.Dataset, td.GroundTruth
	opts := s.Cfg.options()

	t := &Table{
		ID:     "Ablations",
		Title:  fmt.Sprintf("Design-choice ablations on %s", ds.Name()),
		Header: []string{"choice", "arm", "dim", "MAP", "mean recall", "runtime"},
	}
	addPoint := func(choice, arm string, dim int, res pipeline.Result) {
		row := []string{choice, arm, fmt.Sprintf("%dd", dim), fmtFloat(res.MAP), fmtFloat(res.MeanRecall), res.Duration.Round(1e6).String()}
		if res.Err != nil {
			row[3], row[4] = "err", "err"
		}
		t.Rows = append(t.Rows, row)
	}
	// Every arm gets a fresh score memo over its own LOF, which owns a
	// fresh plane, so each arm's runtime is measured cold.
	eng := s.Cfg.engine()
	lof := func() core.Detector {
		return eng.NewScoreMemo(detector.NewLOF(detector.DefaultLOFK))
	}
	lofDet := func() pipeline.NamedDetector {
		return pipeline.NamedDetector{Name: "LOF", Detector: lof()}
	}

	// 1. Z-score vs raw subspace scoring, in the regime where it matters:
	// the VARIABLE-dimensionality Beam, whose global list compares
	// candidates across dimensionalities. Raw detector scores carry the
	// dimensionality bias the paper's standardisation removes.
	for _, raw := range []bool{false, true} {
		o := opts
		o.RawScores = raw
		o.BeamVariableDim = true
		pp := pipeline.PointPipelines(lofDet(), s.Cfg.Seed, o)[0]
		arm := "z-score"
		if raw {
			arm = "raw"
		}
		addPoint("beam scoring (variable-dim)", arm, 3, pipeline.RunPointExplanation(ctx, ds, gt, pp, 3))
	}

	// 2. Beam_FX vs variable-dimensionality Beam at the same target.
	for _, variable := range []bool{false, true} {
		o := opts
		o.BeamVariableDim = variable
		pp := pipeline.PointPipelines(lofDet(), s.Cfg.Seed, o)[0]
		arm := "fixed (Beam_FX)"
		if variable {
			arm = "variable (Beam)"
		}
		addPoint("beam output dim", arm, 3, pipeline.RunPointExplanation(ctx, ds, gt, pp, 3))
	}

	// 3. Welch vs KS contrast in HiCS (the paper's footnote-2 choice):
	// effectiveness is usually tied; the cost difference is the point.
	for _, ks := range []bool{false, true} {
		o := opts
		o.UseKSContrast = ks
		sp := pipeline.SummaryPipelines(lofDet(), s.Cfg.Seed, o)[1]
		arm := "welch"
		if ks {
			arm = "ks"
		}
		addPoint("hics contrast", arm, 3, pipeline.RunSummarization(ctx, ds, gt, sp, 3))
	}

	// 4. HiCS output ranking: max vs mean standardised score over the
	// points of interest. The mean drowns subspaces that explain small
	// outlier groups (this testbed's 4-point groups), visible at the
	// highest dimensionality.
	hicsDim := synth.ExplanationDims(s.Cfg.Scale, true)
	lastDim := hicsDim[len(hicsDim)-1]
	for _, byMean := range []bool{false, true} {
		h := &summarize.HiCS{
			Detector:        lof(),
			CandidateCutoff: opts.HiCSCutoff,
			MCIterations:    opts.HiCSIterations,
			FixedDim:        true,
			TopK:            opts.TopK,
			Seed:            s.Cfg.Seed,
			RankByMean:      byMean,
		}
		sp := pipeline.SummaryPipeline{Detector: "LOF", Summarizer: h, Ranker: h.Detector}
		arm := "max"
		if byMean {
			arm = "mean"
		}
		addPoint("hics output ranking", arm, lastDim, pipeline.RunSummarization(ctx, ds, gt, sp, lastDim))
	}

	// 5. iForest repetition averaging feeding Beam, at 2d where iForest
	// pipelines are effective — the arm contrast is variance (MAP
	// stability) and the 10× scoring cost.
	for _, reps := range []int{1, 10} {
		iforest := &detector.IsolationForest{
			Trees: 50, Subsample: 128, Repetitions: reps, Seed: s.Cfg.Seed,
		}
		d := pipeline.NamedDetector{Name: "iForest", Detector: eng.NewScoreMemo(iforest)}
		pp := pipeline.PointPipelines(d, s.Cfg.Seed, opts)[0]
		addPoint("iforest averaging", fmt.Sprintf("reps=%d", reps), 2, pipeline.RunPointExplanation(ctx, ds, gt, pp, 2))
	}

	t.Notes = append(t.Notes, "arms share the dataset, ground truth, seed and remaining hyper-parameters")
	return t
}

// ablationDataset picks the highest-dimensionality synthetic dataset: the
// regime where the explainers struggle, so the design choices actually
// separate the arms.
func (s *Session) ablationDataset() synth.TestbedDataset {
	synths := s.TB.Synthetic
	return synths[len(synths)-1]
}
