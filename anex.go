// Package anex is a Go library for unsupervised, detector-agnostic anomaly
// explanation, reproducing the testbed of "A Comparative Evaluation of
// Anomaly Explanation Algorithms" (Myrtakis, Christophides, Simon — EDBT
// 2021).
//
// Given a multi-dimensional numeric dataset and a set of outlier points,
// the library ranks the feature subspaces that best explain WHY those
// points are abnormal:
//
//   - Point explainers (Beam, RefOut) rank subspaces explaining the
//     outlyingness of one individual point.
//   - Explanation summarizers (LookOut, HiCS) rank subspaces that jointly
//     separate as many outliers from the inliers as possible.
//
// All four algorithms are detector-agnostic: they accept any Detector, and
// three are provided — LOF (density-based), FastABOD (angle-based) and
// IsolationForest (isolation-based).
//
// # Quick start
//
//	ds, _ := anex.FromRows("my-data", rows, nil)
//	det := anex.NewLOF(15)
//	beam := anex.NewBeam(det)
//	explanations, _ := beam.ExplainPoint(ctx, ds, suspiciousPoint, 2)
//	fmt.Println(explanations[0].Subspace) // e.g. {F3, F7}
//
// Every scoring entry point takes a context.Context: cancelling it (or
// letting a deadline pass) aborts the search promptly with the context's
// error, which is how the CLIs implement clean SIGINT shutdown and per-cell
// grid timeouts.
//
// The subpackages are re-exported here so that applications only import
// anex; the experiment harness that regenerates the paper's tables and
// figures lives in cmd/anexbench.
package anex

import (
	"context"
	"io"
	"math/rand"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/explain"
	"anex/internal/metrics"
	"anex/internal/neighbors"
	"anex/internal/parallel"
	"anex/internal/pipeline"
	"anex/internal/plot"
	"anex/internal/server"
	"anex/internal/stream"
	"anex/internal/subspace"
	"anex/internal/summarize"
	"anex/internal/surrogate"
	"anex/internal/synth"
)

// Core data model.
type (
	// Dataset is an immutable numeric dataset (see FromRows, FromColumns,
	// ReadCSV).
	Dataset = dataset.Dataset
	// View is a dataset projected onto one subspace.
	View = dataset.View
	// GroundTruth associates outliers with their relevant subspaces.
	GroundTruth = dataset.GroundTruth
	// Subspace is a canonical set of feature indices.
	Subspace = subspace.Subspace
	// ScoredSubspace pairs a subspace with its producer's score.
	ScoredSubspace = core.ScoredSubspace
)

// Algorithm contracts.
type (
	// Detector scores the outlyingness of every point of a view
	// (higher = more outlying).
	Detector = core.Detector
	// PointExplainer ranks subspaces explaining one point.
	PointExplainer = core.PointExplainer
	// Summarizer ranks subspaces jointly explaining many points.
	Summarizer = core.Summarizer
)

// Detectors.
type (
	// LOF is the Local Outlier Factor detector (Breunig et al. 2000).
	LOF = detector.LOF
	// FastABOD is the fast Angle-Based Outlier Detector (Kriegel et al. 2008).
	FastABOD = detector.FastABOD
	// IsolationForest is the isolation-based detector (Liu et al. 2008).
	IsolationForest = detector.IsolationForest
	// LODA is the lightweight on-line detector of anomalies (Pevný 2015),
	// an extension beyond the paper's three batch detectors.
	LODA = detector.LODA
	// LODAModel is a fitted LODA supporting online scoring, updating, and
	// per-feature explanation.
	LODAModel = detector.LODAModel
	// KNNDist is the mean-kNN-distance baseline detector.
	KNNDist = detector.KNNDist
)

// Predictive explanations (the paper's concluding future-work proposal):
// surrogate models approximating a detector's decision boundary, explaining
// points through minimal predictive signatures at O(depth) cost.
type (
	// SurrogateTree is a CART regression surrogate of a detector.
	SurrogateTree = surrogate.Tree
	// SurrogateForest is a bagged ensemble of surrogate trees.
	SurrogateForest = surrogate.Forest
	// SurrogateTreeOptions configures tree fitting.
	SurrogateTreeOptions = surrogate.TreeOptions
	// SurrogateForestOptions configures the ensemble.
	SurrogateForestOptions = surrogate.ForestOptions
)

// FitSurrogateTree fits a regression-tree surrogate on (features → target).
func FitSurrogateTree(ds *Dataset, target []float64, opts SurrogateTreeOptions) (*SurrogateTree, error) {
	return surrogate.FitTree(ds, target, opts)
}

// FitSurrogateForest fits a bagged surrogate on (features → target).
func FitSurrogateForest(ds *Dataset, target []float64, opts SurrogateForestOptions) (*SurrogateForest, error) {
	return surrogate.FitForest(ds, target, opts)
}

// ExplainDetectorWithSurrogate scores the dataset with the detector, fits a
// surrogate forest on the scores, and returns it with its R² fidelity.
func ExplainDetectorWithSurrogate(ctx context.Context, ds *Dataset, det Detector, opts SurrogateForestOptions) (*SurrogateForest, float64, error) {
	return surrogate.ExplainDetector(ctx, ds, det, opts)
}

// Streaming (the paper's future-work direction, Section 6).
type (
	// StreamMonitor is a sliding-window detection + re-explanation
	// pipeline over a point stream.
	StreamMonitor = stream.Monitor
	// StreamConfig parameterises a StreamMonitor.
	StreamConfig = stream.Config
	// StreamAlert is one flagged, explained stream point.
	StreamAlert = stream.Alert
	// StreamStats counts a StreamMonitor's evaluations and its
	// incremental engine's work (arrivals, repairs, rescans, publishes).
	StreamStats = stream.StreamStats
)

// Explanation algorithms.
type (
	// Beam is the stage-wise greedy point explainer (Nguyen et al. 2016).
	Beam = explain.Beam
	// RefOut is the random-projection point explainer (Keller et al. 2013).
	RefOut = explain.RefOut
	// LookOut is the submodular-coverage summarizer (Gupta et al. 2018).
	LookOut = summarize.LookOut
	// HiCS is the high-contrast-subspace summarizer (Keller et al. 2012).
	HiCS = summarize.HiCS
	// GroupSummarizer partitions outliers into groups sharing one
	// characterizing subspace each (after Macha & Akoglu 2018, the
	// paper's group-explanation future-work reference).
	GroupSummarizer = summarize.GroupSummarizer
	// OutlierGroup is one group of outliers with its characterizing
	// subspace.
	OutlierGroup = summarize.Group
)

// PointResult is the evaluation of one explained point against ground truth.
type PointResult = metrics.PointResult

// NewSubspace returns the canonical subspace over the given features.
func NewSubspace(features ...int) Subspace { return subspace.New(features...) }

// ParseSubspace parses a canonical key such as "1,4,9".
func ParseSubspace(key string) (Subspace, error) { return subspace.Parse(key) }

// FromRows builds a dataset from row-major data. Feature names may be nil.
func FromRows(name string, rows [][]float64, features []string) (*Dataset, error) {
	return dataset.FromRows(name, rows, features)
}

// FromColumns builds a dataset from column-major data without copying.
func FromColumns(name string, cols [][]float64, features []string) (*Dataset, error) {
	return dataset.New(name, cols, features)
}

// ReadCSV reads a dataset from CSV; set header when the first record names
// the features.
func ReadCSV(name string, r io.Reader, header bool) (*Dataset, error) {
	return dataset.ReadCSV(name, r, header)
}

// LoadCSV reads a dataset (with header) from a file.
func LoadCSV(name, path string) (*Dataset, error) { return dataset.LoadCSV(name, path) }

// NewLOF returns a LOF detector with neighbourhood size k (0 → 15, the
// paper's setting).
func NewLOF(k int) *LOF { return detector.NewLOF(k) }

// NewFastABOD returns a Fast ABOD detector with neighbourhood size k
// (0 → 10, the paper's setting).
func NewFastABOD(k int) *FastABOD { return detector.NewFastABOD(k) }

// NewIsolationForest returns an Isolation Forest with the paper's settings
// (100 trees, subsample 256, 10 averaged repetitions).
func NewIsolationForest(seed int64) *IsolationForest { return detector.NewIsolationForest(seed) }

// NewLODA returns a LODA detector (100 sparse random projections).
func NewLODA(seed int64) *LODA { return detector.NewLODA(seed) }

// FitLODA fits a LODA model on raw points for online scoring, updating and
// per-feature explanation. projections and bins of 0 select the defaults.
func FitLODA(points [][]float64, projections, bins int, seed int64) *LODAModel {
	return detector.FitLODA(points, projections, bins, seed)
}

// NewKNNDist returns the mean-kNN-distance baseline detector (0 → k=10).
func NewKNNDist(k int) *KNNDist { return detector.NewKNNDist(k) }

// NewStreamMonitor builds a sliding-window detection + explanation monitor.
func NewStreamMonitor(cfg StreamConfig) (*StreamMonitor, error) { return stream.NewMonitor(cfg) }

// StreamThreshold returns a pointer to z for StreamConfig.ZThreshold,
// distinguishing a deliberate zero threshold from "unset, use the default".
func StreamThreshold(z float64) *float64 { return stream.Threshold(z) }

// StreamSlack returns a pointer to s for StreamConfig.Slack,
// distinguishing a deliberate zero slack from "unset, use the default".
func StreamSlack(s int) *int { return stream.Slack(s) }

// CachedDetector wraps a detector with a per-subspace score memo, sound
// whenever the detector is deterministic per subspace (all three built-in
// detectors are). The cache is safe for concurrent use and deduplicates
// concurrent misses on one subspace singleflight-style.
func CachedDetector(d Detector) Detector { return detector.NewCached(d) }

// TimedDetector wraps a detector with a concurrency-safe accumulator of the
// time spent inside Scores, the instrument behind the per-phase (scoring vs.
// search) timing that pipeline results report.
type TimedDetector = detector.Timed

// NewTimedDetector wraps d with a scoring-time accumulator.
func NewTimedDetector(d Detector) *TimedDetector { return detector.NewTimed(d) }

// ResolveWorkers maps a user-facing worker knob to a concrete count: values
// ≤ 0 select GOMAXPROCS (use every core), anything positive is returned
// unchanged. Inner-loop Workers fields (detectors, pipelines) treat counts
// ≤ 1 as serial, so resolve once at the boundary and pass the result down.
func ResolveWorkers(workers int) int { return parallel.Resolve(workers) }

// NewBeam returns the Beam point explainer with the paper's settings
// (beam width 100, top-100 results, variable output dimensionality).
func NewBeam(det Detector) *Beam { return explain.NewBeam(det) }

// NewBeamFX returns the fixed-dimensionality Beam_FX variant used in the
// paper's experiments.
func NewBeamFX(det Detector) *Beam { return explain.NewBeamFX(det) }

// NewRefOut returns the RefOut point explainer with the paper's settings
// (pool 100 at 70% dimensionality, Welch's t-test discrepancy).
func NewRefOut(det Detector, seed int64) *RefOut { return explain.NewRefOut(det, seed) }

// NewLookOut returns the LookOut summarizer with the paper's settings
// (budget 100).
func NewLookOut(det Detector) *LookOut { return summarize.NewLookOut(det) }

// NewHiCS returns the HiCS summarizer with the paper's settings
// (candidate cutoff 400, α=0.1, 100 Monte-Carlo Welch iterations).
func NewHiCS(det Detector, seed int64) *HiCS { return summarize.NewHiCS(det, seed) }

// NewHiCSFX returns the fixed-dimensionality HiCS_FX variant used in the
// paper's experiments.
func NewHiCSFX(det Detector, seed int64) *HiCS { return summarize.NewHiCSFX(det, seed) }

// NewGroupSummarizer returns a group-based explanation summarizer.
func NewGroupSummarizer(det Detector) *GroupSummarizer { return summarize.NewGroupSummarizer(det) }

// NewGroundTruth builds a ground truth from a point → relevant-subspaces map.
func NewGroundTruth(relevant map[int][]Subspace) *GroundTruth {
	return dataset.NewGroundTruth(relevant)
}

// ReadGroundTruthJSON reads a ground truth serialised by
// GroundTruth.WriteJSON (the format anexgen emits).
func ReadGroundTruthJSON(r io.Reader) (*GroundTruth, error) {
	return dataset.ReadGroundTruthJSON(r)
}

// Evaluation metrics (Section 3.3 of the paper).

// AveragePrecision computes AveP of a ranked explanation list against the
// relevant subspaces (Eq. 2).
func AveragePrecision(returned, relevant []Subspace) float64 {
	return metrics.AveragePrecision(returned, relevant)
}

// Precision computes |REL ∩ EXP| / |EXP| (Eq. 1).
func Precision(returned, relevant []Subspace) float64 {
	return metrics.Precision(returned, relevant)
}

// Recall computes |REL ∩ EXP| / |REL|.
func Recall(returned, relevant []Subspace) float64 {
	return metrics.Recall(returned, relevant)
}

// EvaluatePoint scores one point's ranked explanation list.
func EvaluatePoint(p int, returned, relevant []Subspace) PointResult {
	return metrics.EvaluatePoint(p, returned, relevant)
}

// MAP computes the Mean Average Precision over per-point results (Eq. 3).
func MAP(results []PointResult) float64 { return metrics.MAP(results) }

// MeanRecall computes the mean per-point recall.
func MeanRecall(results []PointResult) float64 { return metrics.MeanRecall(results) }

// ROCAUC measures detector quality: the area under the ROC curve of the
// outlyingness scores against binary outlier labels.
func ROCAUC(scores []float64, outlier []bool) float64 { return metrics.ROCAUC(scores, outlier) }

// PrecisionAtN measures detector quality at the top of the ranking; n ≤ 0
// selects R-precision (n = number of true outliers).
func PrecisionAtN(scores []float64, outlier []bool, n int) float64 {
	return metrics.PrecisionAtN(scores, outlier, n)
}

// AveragePrecisionScore is the average precision of a score ranking against
// binary outlier labels.
func AveragePrecisionScore(scores []float64, outlier []bool) float64 {
	return metrics.AveragePrecisionScore(scores, outlier)
}

// Subspaces projects a ranked ScoredSubspace list onto its subspaces.
func Subspaces(list []ScoredSubspace) []Subspace { return core.Subspaces(list) }

// PlotOptions controls the terminal scatter rendering of PlotSubspace.
type PlotOptions = plot.Options

// PlotSubspace renders a 2d subspace of the dataset as a terminal scatter
// plot with the given points highlighted — LookOut's pictorial explanation.
func PlotSubspace(w io.Writer, ds *Dataset, s Subspace, opts PlotOptions) error {
	return plot.Scatter(w, ds.View(s), opts)
}

// Synthetic data generation (Section 3.2 of the paper).

// SubspaceOutlierConfig configures the HiCS-style generator planting
// subspace outliers in correlated feature groups.
type SubspaceOutlierConfig = synth.SubspaceConfig

// FullSpaceOutlierConfig configures the generator planting full-space
// density outliers (the real-world-dataset substitute).
type FullSpaceOutlierConfig = synth.FullSpaceConfig

// GenerateSubspaceOutliers builds a dataset with planted subspace outliers
// and its ground truth.
func GenerateSubspaceOutliers(c SubspaceOutlierConfig) (*Dataset, *GroundTruth, error) {
	return synth.GenerateSubspaceOutliers(c)
}

// GenerateFullSpaceOutliers builds a dataset with planted full-space
// density outliers, returning the outlier indices.
func GenerateFullSpaceOutliers(c FullSpaceOutlierConfig) (*Dataset, []int, error) {
	return synth.GenerateFullSpaceOutliers(c)
}

// DeriveGroundTruth derives per-outlier relevant subspaces by exhaustive
// detector search over the given dimensionalities, the paper's methodology
// for full-space outliers. Cancelling ctx aborts the sweep.
func DeriveGroundTruth(ctx context.Context, ds *Dataset, outliers []int, dims []int, det Detector) (*GroundTruth, error) {
	return synth.DeriveTopSubspaceGroundTruth(ctx, ds, outliers, dims, det)
}

// RandomSubspace draws a uniformly random k-feature subspace of a
// d-feature space.
func RandomSubspace(rng *rand.Rand, d, k int) Subspace { return subspace.Random(rng, d, k) }

// Pipelines (Figure 7 of the paper).

// PipelineResult is the outcome of one detector × explainer execution.
type PipelineResult = pipeline.Result

// GridSpec describes a full detector × explainer grid execution (the
// paper's Figure 7), optionally parallel.
type GridSpec = pipeline.GridSpec

// NamedDetector pairs a detector with its report name, for GridSpec.
type NamedDetector = pipeline.NamedDetector

// PipelineOptions tunes the explainer hyper-parameters of a grid away from
// the paper's defaults.
type PipelineOptions = pipeline.Options

// Journal is an append-only checkpoint of completed grid cells enabling
// resume after interruption (see pipeline.OpenJournal).
type Journal = pipeline.Journal

// OpenJournal opens (or creates) a checkpoint journal at path, recovering
// already-completed cells and truncating any torn trailing write.
func OpenJournal(path string) (*Journal, error) { return pipeline.OpenJournal(path) }

// RunGrid executes every detector × explainer pipeline of the spec and
// returns the cell results in deterministic order. Cancelling ctx stops
// scheduling new cells and stamps unfinished cells with ctx's error; cells
// that panic or time out carry the failure in their Result.Err while the
// rest of the grid completes. The returned error reports journal I/O
// problems only.
func RunGrid(ctx context.Context, spec GridSpec) ([]PipelineResult, error) {
	return pipeline.RunGrid(ctx, spec)
}

// NeighborhoodPlane is the shared kNN cache behind the library's
// kNN-based detectors: one computation per (dataset, subspace) at the
// maximum registered neighbourhood size, prefix-sliced for every consumer,
// byte-budgeted with LRU eviction. NewLOF, NewFastABOD and NewKNNDist give
// each detector a plane of its own; SetNeighbors shares one plane between
// detectors. RunGrid wires one plane into all its factory-built detectors:
// GridSpec.Plane, or a private plane when that is nil.
type NeighborhoodPlane = neighbors.Plane

// NeighborhoodPlaneStats is a snapshot of a plane's activity (queries,
// hits, dedup factor, residency).
type NeighborhoodPlaneStats = neighbors.PlaneStats

// NewNeighborhoodPlane returns a plane bounded by maxBytes of resident
// neighbourhood structures (≤ 0 selects the 256 MiB default).
func NewNeighborhoodPlane(maxBytes int64) *NeighborhoodPlane {
	return neighbors.NewPlane(maxBytes)
}

// Explanation as a service (the anexd server's core, usable in-process).
type (
	// ExplainEngine is the long-lived explanation core behind the anexd
	// HTTP server and the anexplain CLI: a multi-tenant dataset registry
	// whose shared neighbourhood plane and per-dataset score memos persist
	// across requests, so repeated explanations cost cache lookups instead
	// of detector work.
	ExplainEngine = server.Engine
	// ExplainEngineConfig sizes an ExplainEngine.
	ExplainEngineConfig = server.EngineConfig
	// ExplainRequest asks an engine to explain points of a registered
	// dataset; zero-valued knobs select the anexplain CLI defaults.
	ExplainRequest = server.ExplainRequest
	// ExplainResponse is an engine's ranked answer.
	ExplainResponse = server.ExplainResponse
)

// NewExplainEngine builds an explanation engine with its own private
// neighbourhood plane and score-memo budgets.
func NewExplainEngine(cfg ExplainEngineConfig) *ExplainEngine { return server.NewEngine(cfg) }

// ExplainOutliers runs the explainer on every outlier the ground truth
// explains at targetDim and evaluates MAP/recall against it.
func ExplainOutliers(ctx context.Context, ds *Dataset, gt *GroundTruth, detName string, e PointExplainer, targetDim int) PipelineResult {
	return pipeline.RunPointExplanation(ctx, ds, gt, pipeline.PointPipeline{Detector: detName, Explainer: e}, targetDim)
}

// SummarizeOutliers runs the summarizer once over all ground-truth outliers
// and evaluates the shared summary per point at targetDim, in summary order.
func SummarizeOutliers(ctx context.Context, ds *Dataset, gt *GroundTruth, detName string, s Summarizer, targetDim int) PipelineResult {
	return pipeline.RunSummarization(ctx, ds, gt, pipeline.SummaryPipeline{Detector: detName, Summarizer: s}, targetDim)
}

// SummarizeOutliersRanked is SummarizeOutliers with the paper's per-point
// evaluation: each point sees the shared summary re-ranked by its own
// standardised outlyingness under ranker before AveP is computed.
func SummarizeOutliersRanked(ctx context.Context, ds *Dataset, gt *GroundTruth, detName string, s Summarizer, ranker Detector, targetDim int) PipelineResult {
	return pipeline.RunSummarization(ctx, ds, gt, pipeline.SummaryPipeline{Detector: detName, Summarizer: s, Ranker: ranker}, targetDim)
}
