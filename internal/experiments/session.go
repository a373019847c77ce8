package experiments

import (
	"context"
	"fmt"
	"io"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
	"anex/internal/pipeline"
	"anex/internal/server"
	"anex/internal/subspace"
	"anex/internal/synth"
)

// Config parameterises an experiment session.
type Config struct {
	// Scale selects the reduced or paper-shaped testbed.
	Scale synth.Scale
	// Seed drives every stochastic component.
	Seed int64
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
	// TimingPoints bounds the number of outliers explained per dataset in
	// the runtime experiment (Figure 11); zero means scale default
	// (3 at small scale, all outliers at paper scale).
	TimingPoints int
	// DatasetFilter, when non-empty, restricts the testbed to the named
	// datasets (useful for running single paper-scale datasets).
	DatasetFilter []string
	// Journal, when set, persists each completed pipeline cell and lets
	// interrupted runs resume without recomputation (see
	// pipeline.RunCells). A journal is only valid for one (scale, seed)
	// configuration.
	Journal *pipeline.Journal
	// DetectorFilter, when non-empty, restricts the pipelines to the
	// named detectors ("LOF", "FastABOD", "iForest") — useful for
	// paper-scale probes where the slow detectors are prohibitive.
	DetectorFilter []string
	// UseMeanRecall renders Figures 9/10 with the paper's Mean Recall
	// metric instead of MAP (both are computed either way).
	UseMeanRecall bool
	// Workers bounds each pipeline cell's inner loops (per explained
	// point, per ranked summary subspace, per stage-scored candidate);
	// zero means GOMAXPROCS. Cells themselves run serially so the journal
	// stays append-ordered; the parallelism lives inside each cell, where
	// results are identical at any worker count.
	Workers int
	// CacheBytes is the byte budget of each cached detector's score memo
	// (see detector.NewCachedBudget); zero selects the generous default.
	CacheBytes int64
	// PlaneBytes is the byte budget of the session's shared neighbourhood
	// plane — ONE plane serves the ground-truth derivation and every kNN
	// detector of the effectiveness figures across all datasets,
	// LRU-bounded; zero selects neighbors.DefaultPlaneBytes.
	PlaneBytes int64

	// eng is the session's explanation core — the same server.Engine that
	// backs anexd — built on first use by engine. It owns the session's
	// one neighbourhood plane and builds every score memo, so the batch
	// harness and the long-lived service exercise one code path.
	eng *server.Engine
}

// engine returns the session's engine, building it on first use, so a
// Session assembled around a hand-built Testbed gets one too.
func (c *Config) engine() *server.Engine {
	if c.eng == nil {
		c.eng = server.NewEngine(server.EngineConfig{
			Workers:    c.Workers,
			CacheBytes: c.CacheBytes,
			PlaneBytes: c.PlaneBytes,
		})
	}
	return c.eng
}

func (c *Config) wantDetector(name string) bool {
	if len(c.DetectorFilter) == 0 {
		return true
	}
	for _, want := range c.DetectorFilter {
		if want == name {
			return true
		}
	}
	return false
}

func (c *Config) wantDataset(name string) bool {
	if len(c.DatasetFilter) == 0 {
		return true
	}
	for _, want := range c.DatasetFilter {
		if want == name {
			return true
		}
	}
	return false
}

func (c *Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// options returns the explainer hyper-parameters for the scale: the paper's
// settings at paper scale, proportionally reduced ones at small scale. The
// session's worker knob rides along so every pipeline built from these
// options parallelises its inner loops.
func (c *Config) options() pipeline.Options {
	workers := parallel.Resolve(c.Workers)
	if c.Scale == synth.ScalePaper {
		// Paper defaults throughout.
		return pipeline.Options{Workers: workers, CacheBytes: c.CacheBytes}
	}
	return pipeline.Options{
		BeamWidth:      30,
		RefOutPoolSize: 60,
		RefOutWidth:    30,
		LookOutBudget:  30,
		HiCSCutoff:     100,
		HiCSIterations: 40,
		TopK:           30,
		Workers:        workers,
		CacheBytes:     c.CacheBytes,
	}
}

// detectors builds the three detectors, sized to the scale. Only the
// effectiveness figures (cached) share the session's neighbourhood plane:
// their kNN detectors are wired to it, so the per-(dataset, subspace)
// structures survive the per-dataset score-memo resets and are shared
// across detectors and across Figures 9 and 10. Uncached detectors are for
// timing and keep the fresh plane an LOF or FastABOD is built with, so a
// timing cell that builds its own detector is timed cold.
func (c *Config) detectors(cached bool) []pipeline.NamedDetector {
	var dets []pipeline.NamedDetector
	if c.Scale == synth.ScalePaper {
		dets = pipeline.NewDetectors(c.Seed)
	} else {
		dets = []pipeline.NamedDetector{
			{Name: "LOF", Detector: detector.NewLOF(detector.DefaultLOFK)},
			{Name: "FastABOD", Detector: detector.NewFastABOD(detector.DefaultABODK)},
			{Name: "iForest", Detector: &detector.IsolationForest{
				Trees: 50, Subsample: 128, Repetitions: 3, Seed: c.Seed,
			}},
		}
	}
	if cached {
		eng := c.engine()
		for i := range dets {
			eng.WirePlane(dets[i].Detector)
			dets[i].Detector = eng.NewScoreMemo(dets[i].Detector)
		}
	}
	return dets
}

// Testbed holds the generated datasets with their ground truth.
type Testbed struct {
	Synthetic []synth.TestbedDataset
	RealWorld []synth.TestbedDataset
}

// All returns every dataset, synthetic first.
func (tb *Testbed) All() []synth.TestbedDataset {
	out := make([]synth.TestbedDataset, 0, len(tb.Synthetic)+len(tb.RealWorld))
	out = append(out, tb.Synthetic...)
	out = append(out, tb.RealWorld...)
	return out
}

// Session owns a generated testbed and lazily computed experiment results.
type Session struct {
	Cfg Config
	TB  *Testbed

	pointResults   []pipeline.Result
	summaryResults []pipeline.Result
	timingPoint    []pipeline.Result
	timingSummary  []pipeline.Result
}

// NewSession generates the testbed for the configuration. Real-world-like
// ground truth is derived with LOF, as in the paper. Cancelling ctx aborts
// testbed generation (the ground-truth derivation runs full detector
// sweeps) with ctx's error.
func NewSession(ctx context.Context, cfg Config) (*Session, error) {
	tb := &Testbed{}
	for _, c := range synth.SyntheticConfigs(cfg.Scale, cfg.Seed) {
		if !cfg.wantDataset(c.Name) {
			continue
		}
		cfg.logf("generating %s (%dd, %d subspaces)", c.Name, c.TotalDims, len(c.SubspaceDims))
		td, err := synth.BuildSynthetic(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		tb.Synthetic = append(tb.Synthetic, td)
	}
	gtDims := synth.GroundTruthDims(cfg.Scale)
	gtLOF := detector.NewLOF(detector.DefaultLOFK)
	cfg.engine().WirePlane(gtLOF)
	for _, c := range synth.RealWorldConfigs(cfg.Scale, cfg.Seed) {
		if !cfg.wantDataset(c.Name) {
			continue
		}
		cfg.logf("generating %s (%d×%d) and deriving ground truth over dims %v", c.Name, c.N, c.D, gtDims)
		td, err := synth.BuildRealWorld(ctx, c, gtDims, gtLOF)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		tb.RealWorld = append(tb.RealWorld, td)
	}
	if len(tb.Synthetic)+len(tb.RealWorld) == 0 {
		return nil, fmt.Errorf("experiments: dataset filter %v matched nothing", cfg.DatasetFilter)
	}
	return &Session{Cfg: cfg, TB: tb}, nil
}

// explanationDims returns the dims evaluated for a dataset family.
func (s *Session) explanationDims(synthetic bool) []int {
	return synth.ExplanationDims(s.Cfg.Scale, synthetic)
}

// PointResults runs (or returns cached) Figure 9 pipeline executions: both
// point explainers × three detectors × all datasets × all dims, with score
// caching across explainers and points. Cancelling ctx aborts the remaining
// cells; finished cells (and journalled ones) keep their results, and
// aborted cells carry ctx's error.
func (s *Session) PointResults(ctx context.Context) []pipeline.Result {
	if s.pointResults == nil {
		s.pointResults, _ = s.runCells(ctx, s.TB.All(), kindPoint, "")
	}
	return s.pointResults
}

// SummaryResults runs (or returns cached) Figure 10 pipeline executions.
// Cancellation semantics match PointResults.
func (s *Session) SummaryResults(ctx context.Context) []pipeline.Result {
	if s.summaryResults == nil {
		_, s.summaryResults = s.runCells(ctx, s.TB.All(), "", kindSummary)
	}
	return s.summaryResults
}

// Journal kinds of the session's cells. Existing -journal files are keyed
// by them, so they must not change.
const (
	kindPoint         = "point"
	kindSummary       = "summary"
	kindTimingPoint   = "timing-point"
	kindTimingSummary = "timing-summary"
)

// runCells runs the cells of the given families and returns each family's
// results in table order: dataset, dimension, detector, pipeline. pointKind
// and summaryKind are the families' journal kinds; an empty kind leaves its
// family out, and the timing kinds select Figure 11's timing cells.
// Infeasible cells get a skipped result and are neither run nor journalled.
//
// Each dataset is one pipeline.RunCells batch on one worker: cells run
// serially, as Config.Workers documents, and the dataset's score memos die
// with its batch. Effectiveness cells share the dataset's cached detectors
// on the session plane. A timing cell builds its own uncached detector when
// it runs, so no timing depends on what ran before it.
func (s *Session) runCells(ctx context.Context, datasets []synth.TestbedDataset, pointKind, summaryKind string) (point, summary []pipeline.Result) {
	timing := pointKind == kindTimingPoint || summaryKind == kindTimingSummary
	opts := s.Cfg.options()
	for _, td := range datasets {
		ds, gt := td.Dataset, td.GroundTruth
		if timing {
			gt = s.timingGroundTruth(td)
		}
		dets := s.Cfg.detectors(!timing)
		detector := func(i int) pipeline.NamedDetector {
			if timing {
				return s.Cfg.detectors(false)[i]
			}
			return dets[i]
		}

		var (
			cells []pipeline.Cell
			out   []pipeline.Result // table order, skipped cells filled in
			kinds []string          // out's journal kinds
			slots []int             // out's index of each cell
		)
		add := func(kind, det, expl string, dim int, feasible bool, run func(context.Context) pipeline.Result) {
			kinds = append(kinds, kind)
			if !feasible {
				out = append(out, skipped(ds.Name(), det, expl, dim))
				return
			}
			slots = append(slots, len(out))
			out = append(out, pipeline.Result{})
			cells = append(cells, pipeline.Cell{Kind: kind, Dataset: ds.Name(), Detector: det, Explainer: expl, Dim: dim,
				Run: func(ctx context.Context) pipeline.Result {
					res := run(ctx)
					s.Cfg.logCell(kind, res)
					return res
				}})
		}
		for _, dim := range s.explanationDims(td.Synthetic) {
			for i, d := range dets {
				if !s.Cfg.wantDetector(d.Name) {
					continue
				}
				if pointKind != "" {
					for j, pp := range pipeline.PointPipelines(d, s.Cfg.Seed, opts) {
						expl := pp.Explainer.Name()
						add(pointKind, d.Name, expl, dim, feasiblePoint(s.Cfg.Scale, ds.D(), dim, d.Name, expl), func(ctx context.Context) pipeline.Result {
							return pipeline.RunPointExplanation(ctx, ds, gt, pipeline.PointPipelines(detector(i), s.Cfg.Seed, opts)[j], dim)
						})
					}
				}
				if summaryKind != "" {
					for j, sp := range pipeline.SummaryPipelines(d, s.Cfg.Seed, opts) {
						expl := sp.Summarizer.Name()
						add(summaryKind, d.Name, expl, dim, feasibleSummary(s.Cfg.Scale, ds.D(), dim, d.Name, expl), func(ctx context.Context) pipeline.Result {
							return pipeline.RunSummarization(ctx, ds, gt, pipeline.SummaryPipelines(detector(i), s.Cfg.Seed, opts)[j], dim)
						})
					}
				}
			}
		}

		results, err := pipeline.RunCells(ctx, cells, 1, 0, s.Cfg.Journal)
		if err != nil {
			s.Cfg.logf("journal write failed: %v", err)
		}
		for k, res := range results {
			out[slots[k]] = res
		}
		for k, res := range out {
			if kinds[k] == pointKind {
				point = append(point, res)
			} else {
				summary = append(summary, res)
			}
		}
	}
	return point, summary
}

// logCell reports one computed cell on the progress writer.
func (c *Config) logCell(kind string, res pipeline.Result) {
	switch kind {
	case kindPoint, kindSummary:
		fig := "fig9"
		if kind == kindSummary {
			fig = "fig10"
		}
		c.logf("%s %-18s %dd %-9s %-8s MAP=%.3f (%s)",
			fig, res.Dataset, res.TargetDim, res.Detector, res.Explainer, res.MAP, res.Duration.Round(1e6))
	default:
		c.logf("fig11 %-18s %dd %-9s %-8s %s (score %s | search %s)",
			res.Dataset, res.TargetDim, res.Detector, res.Explainer, res.Duration.Round(1e6),
			res.ScoringTime.Round(1e6), res.SearchTime.Round(1e6))
	}
}

// PlaneStats reports the activity of the session's shared neighbourhood
// plane: hits, computations, the dedup factor, residency, and the embedded
// delta engine's counters — anexbench's -stats dump.
func (s *Session) PlaneStats() neighbors.PlaneStats {
	return s.Cfg.engine().PlaneStats()
}

// skipped marks an infeasible cell; MAP < 0 renders as "-".
func skipped(dataset, det, expl string, dim int) pipeline.Result {
	return pipeline.Result{Dataset: dataset, Detector: det, Explainer: expl, TargetDim: dim, MAP: -1, MeanRecall: -1}
}

// timingGroundTruth bounds the outliers explained in runtime measurements,
// keeping up to the limit per explanation dimensionality so that every
// evaluated dimension has points to time.
func (s *Session) timingGroundTruth(td synth.TestbedDataset) *dataset.GroundTruth {
	limit := s.Cfg.TimingPoints
	if limit <= 0 {
		if s.Cfg.Scale == synth.ScalePaper {
			return td.GroundTruth
		}
		limit = 3
	}
	outliers := td.GroundTruth.Outliers()
	if len(outliers) <= limit {
		return td.GroundTruth
	}
	sub := make(map[int][]subspace.Subspace)
	for _, dim := range s.explanationDims(td.Synthetic) {
		points := td.GroundTruth.PointsExplainedAt(dim)
		if len(points) > limit {
			points = points[:limit]
		}
		for _, p := range points {
			sub[p] = td.GroundTruth.RelevantFor(p)
		}
	}
	if len(sub) == 0 {
		return td.GroundTruth
	}
	return dataset.NewGroundTruth(sub)
}

// timingDatasets returns the datasets used in Figure 11: the synthetic
// family up to ~39d and the Electricity-like dataset, as in the paper.
func (s *Session) timingDatasets() []synth.TestbedDataset {
	var out []synth.TestbedDataset
	limit := 39
	if s.Cfg.Scale == synth.ScaleSmall {
		limit = 16
	}
	for _, td := range s.TB.Synthetic {
		if td.Dataset.D() <= limit {
			out = append(out, td)
		}
	}
	// Electricity-like is the last real-world dataset.
	if n := len(s.TB.RealWorld); n > 0 {
		out = append(out, s.TB.RealWorld[n-1])
	}
	return out
}

// TimingResults runs (or returns cached) the Figure 11 runtime experiment:
// bounded point count, same pipelines, each cell on its own uncached
// detector. Cancellation semantics match PointResults.
func (s *Session) TimingResults(ctx context.Context) (point, summary []pipeline.Result) {
	if s.timingPoint == nil && s.timingSummary == nil {
		s.timingPoint, s.timingSummary = s.runCells(ctx, s.timingDatasets(), kindTimingPoint, kindTimingSummary)
	}
	return s.timingPoint, s.timingSummary
}

var _ core.Detector = (*detector.Cached)(nil)
