package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/pipeline"
	"anex/internal/synth"
)

// grid_10d: one op is one cold Figure-9/10 grid — LOF and FastABOD, each
// behind its own score memo on a fresh plane, × Beam_FX, RefOut, LookOut
// and HiCS_FX at paper defaults, × explanation dims {2, 3} — over a
// 300 × 10 planted-subspace dataset, with Workers = nproc. At this size
// every view goes through the delta engine, so the delta engine, detector
// arithmetic and explainer/summarizer search do the work.
const (
	gridN        = 300
	gridDims     = 10
	gridAlgoSeed = 1 // the explainers' own seed (RefOut pools, HiCS draws)
)

var (
	gridSubspaces = []int{2, 2, 3}
	gridExplDims  = []int{2, 3}
	gridKs        = []int{detector.DefaultLOFK, detector.DefaultABODK}
)

const (
	// gridDatasets is how many datasets a run cycles through (op i runs on
	// dataset i mod gridDatasets): a run's figures average over several
	// draws, so they depend less on the one the seed picked.
	gridDatasets = 4
	// gridWarmOps is how many untimed warm-up ops set-up runs.
	gridWarmOps = 2
	// gridReplayOps bounds how many traced ops are replayed (one per
	// dataset); the others still give their spans and results.
	gridReplayOps = gridDatasets
	// gridTail is the fixed tail percentile of the op latencies: a run
	// makes 35–45 grids, so p70 is the highest with ten samples beyond it.
	gridTail = 70
)

// gridData generates the run's datasets from the seed.
func gridData(seed int64) ([]*dataset.Dataset, []*dataset.GroundTruth, error) {
	var dss []*dataset.Dataset
	var gts []*dataset.GroundTruth
	for j := 0; j < gridDatasets; j++ {
		ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
			Name: fmt.Sprintf("grid-10d-%d", j), TotalDims: gridDims, SubspaceDims: gridSubspaces,
			N: gridN, OutliersPerSubspace: 5, Seed: seed*gridDatasets + int64(j),
		})
		if err != nil {
			return nil, nil, err
		}
		dss, gts = append(dss, ds), append(gts, gt)
	}
	return dss, gts, nil
}

// gridOp is one grid execution and the program counters it moved.
type gridOp struct {
	Data    int // dataset index
	Results []pipeline.Result
	Plane   neighbors.PlaneStats
	Memo    detector.CacheStats // summed over both detectors' memos
	Wall    time.Duration
}

// gridDetectors builds the two memo-wrapped detectors on plane; with a
// log, each sits on a recorder beneath its memo.
func gridDetectors(plane *neighbors.Plane, log *viewLog) ([]pipeline.NamedDetector, []*detector.Cached) {
	lof := detector.NewLOF(detector.DefaultLOFK)
	abod := detector.NewFastABOD(detector.DefaultABODK)
	inner := []core.Detector{lof, abod}
	if log != nil {
		inner = []core.Detector{newRecorder(lof, detector.DefaultLOFK, log), newRecorder(abod, detector.DefaultABODK, log)}
	}
	names := []string{"LOF", "FastABOD"}
	var dets []pipeline.NamedDetector
	var memos []*detector.Cached
	for i, d := range inner {
		d.(interface{ SetNeighbors(*neighbors.Plane) }).SetNeighbors(plane)
		m := detector.NewCached(d)
		memos = append(memos, m)
		dets = append(dets, pipeline.NamedDetector{Name: names[i], Detector: m})
	}
	return dets, memos
}

// runGridOp runs one cold grid through pipeline.RunGrid.
func runGridOp(ctx context.Context, ds *dataset.Dataset, gt *dataset.GroundTruth, workers int, log *viewLog) (gridOp, error) {
	plane := neighbors.NewPlane(0)
	dets, memos := gridDetectors(plane, log)
	start := time.Now()
	res, err := pipeline.RunGrid(ctx, pipeline.GridSpec{
		Dataset: ds, GroundTruth: gt, Dims: gridExplDims, Seed: gridAlgoSeed,
		Detectors: dets, Workers: workers,
	})
	op := gridOp{Results: res, Plane: plane.Stats(), Wall: time.Since(start)}
	for _, m := range memos {
		cs := m.CacheStats()
		op.Memo.Calls += cs.Calls
		op.Memo.Hits += cs.Hits
	}
	return op, err
}

// cellErr returns the first failed cell's error.
func cellErr(res []pipeline.Result) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("%s/%s dim %d: %w", r.Detector, r.Explainer, r.TargetDim, r.Err)
		}
	}
	return nil
}

// cellKey identifies a cell independently of the grid's cell order.
func cellKey(r pipeline.Result) string {
	return fmt.Sprintf("%s/%s/%d", r.Detector, r.Explainer, r.TargetDim)
}

// sameResults compares the deterministic fields of two grids' results,
// cell by cell (timings excluded).
func sameResults(want, got []pipeline.Result) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d cells, want %d", len(got), len(want))
	}
	byKey := make(map[string]pipeline.Result, len(want))
	for _, r := range want {
		byKey[cellKey(r)] = r
	}
	for _, g := range got {
		w, ok := byKey[cellKey(g)]
		if !ok {
			return "unexpected cell " + cellKey(g)
		}
		if g.Err != nil || w.Err != nil {
			return fmt.Sprintf("cell %s failed: %v / %v", cellKey(g), w.Err, g.Err)
		}
		if math.Float64bits(w.MAP) != math.Float64bits(g.MAP) ||
			math.Float64bits(w.MeanRecall) != math.Float64bits(g.MeanRecall) ||
			w.PointsEvaluated != g.PointsEvaluated || !reflect.DeepEqual(w.PerPoint, g.PerPoint) {
			return "results differ in cell " + cellKey(g)
		}
	}
	return ""
}

// meanQuality returns the mean MAP and Mean Recall over the grid's cells.
func meanQuality(res []pipeline.Result) (mapMean, recallMean float64) {
	for _, r := range res {
		mapMean += r.MAP
		recallMean += r.MeanRecall
	}
	n := float64(len(res))
	return mapMean / n, recallMean / n
}

// listCapture records the ranked lists explainers and summarizers return,
// keyed by detector, algorithm, dimension and point (-1 for a summary).
type listCapture struct {
	mu    sync.Mutex
	lists map[string][]core.ScoredSubspace
}

func (c *listCapture) put(key string, l []core.ScoredSubspace) {
	c.mu.Lock()
	c.lists[key] = l
	c.mu.Unlock()
}

type capturedExplainer struct {
	core.PointExplainer
	det string
	c   *listCapture
}

func (e capturedExplainer) ExplainPoint(ctx context.Context, ds *dataset.Dataset, p, dim int) ([]core.ScoredSubspace, error) {
	l, err := e.PointExplainer.ExplainPoint(ctx, ds, p, dim)
	e.c.put(fmt.Sprintf("%s/%s/%d/%d", e.det, e.Name(), dim, p), l)
	return l, err
}

type capturedSummarizer struct {
	core.Summarizer
	det string
	c   *listCapture
}

func (s capturedSummarizer) Summarize(ctx context.Context, ds *dataset.Dataset, points []int, dim int) ([]core.ScoredSubspace, error) {
	l, err := s.Summarizer.Summarize(ctx, ds, points, dim)
	s.c.put(fmt.Sprintf("%s/%s/%d/-1", s.det, s.Name(), dim), l)
	return l, err
}

// capturedGrid runs the same grid with every explainer and summarizer
// wrapped so their ranked lists are kept: the check's view of what the
// timed ops' explainers returned.
func capturedGrid(ctx context.Context, ds *dataset.Dataset, gt *dataset.GroundTruth, workers int) ([]pipeline.Result, map[string][]core.ScoredSubspace, error) {
	dets, _ := gridDetectors(neighbors.NewPlane(0), nil)
	c := &listCapture{lists: map[string][]core.ScoredSubspace{}}
	var pps []pipeline.PointPipeline
	var sps []pipeline.SummaryPipeline
	for _, d := range dets {
		for _, pp := range pipeline.PointPipelines(d, gridAlgoSeed, pipeline.Options{}) {
			pp.Explainer = capturedExplainer{pp.Explainer, d.Name, c}
			pps = append(pps, pp)
		}
		for _, sp := range pipeline.SummaryPipelines(d, gridAlgoSeed, pipeline.Options{}) {
			sp.Summarizer = capturedSummarizer{sp.Summarizer, d.Name, c}
			sps = append(sps, sp)
		}
	}
	res, err := pipeline.RunGrid(ctx, pipeline.GridSpec{
		Dataset: ds, GroundTruth: gt, Dims: gridExplDims, Seed: gridAlgoSeed,
		PointPipelines: pps, SummaryPipelines: sps, Workers: workers,
	})
	if err == nil {
		err = cellErr(res)
	}
	return res, c.lists, err
}

// gridState is what set-up leaves for the timed phase.
type gridState struct {
	ds []*dataset.Dataset
	gt []*dataset.GroundTruth
}

func gridSetup(ctx context.Context, seed int64, workers int) (gridState, error) {
	ds, gt, err := gridData(seed)
	if err != nil {
		return gridState{}, err
	}
	// Untimed warm-up ops: first-touch heap growth and page faults.
	for j := 0; j < gridWarmOps; j++ {
		op, err := runGridOp(ctx, ds[j], gt[j], workers, nil)
		if err == nil {
			err = cellErr(op.Results)
		}
		if err != nil {
			return gridState{}, err
		}
	}
	return gridState{ds, gt}, nil
}

// gridPhase runs grid ops in a closed loop with one caller; with a tracer
// it records spans and views and keeps every op.
func gridPhase(ctx context.Context, st gridState, workers int, d time.Duration, tr *tracer, log *viewLog) (loopResult, []gridOp) {
	var ops []gridOp
	lr := closedLoop(d, gridDatasets, func(int) ([]float64, bool) {
		rootID := tr.id()
		runID := tr.id()
		if log != nil {
			log.setOp(rootID, runID)
		}
		j := len(ops) % gridDatasets
		start := time.Now()
		op, err := runGridOp(ctx, st.ds[j], st.gt[j], workers, log)
		end := time.Now()
		tr.add(runID, rootID, rootID, "pipeline.RunGrid", start, end, false)
		tr.add(rootID, 0, rootID, "op", start, end, false)
		op.Data = j
		ops = append(ops, op)
		if err != nil || cellErr(op.Results) != nil || len(op.Results) == 0 {
			return []float64{math.Inf(1)}, true
		}
		return []float64{ms(end.Sub(start))}, false
	})
	return lr, ops
}

func runGrid(ctx context.Context, cfg runConfig) (*report, *runInfo, error) {
	st, setupS, err := timeSetup(func() (gridState, error) {
		return gridSetup(ctx, cfg.Seed, cfg.Workers)
	}, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	info := &runInfo{TailPercentile: gridTail}
	rep := &report{Metrics: map[string]metric{}}
	phase := time.Duration(cfg.Seconds * float64(time.Second))

	var lr loopResult
	var ops, traced []gridOp
	var tr *tracer
	var log *viewLog
	if !cfg.Trace {
		lr, ops = gridPhase(ctx, st, cfg.Workers, phase, nil, nil)
		rep.Metrics = endToEnd(lr, gridTail)
		rep.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		untraced, plain := gridPhase(ctx, st, cfg.Workers, phase/2, nil, nil)
		tr = newTracer()
		log = newViewLog(tr)
		lr, traced = gridPhase(ctx, st, cfg.Workers, phase/2, tr, log)
		rep.Metrics["trace.overhead"] = metric{traceOverhead(untraced, lr), "ratio"}
		lr = mergeLoops(untraced, lr)
		ops = append(plain, traced...)
	}
	rep.Attempted, rep.Failed = lr.Ops, lr.Failed
	info.LatencySamples = len(lr.Samples)

	// Checks, outside the timed phase.
	verdict, refs, err := gridCheck(ctx, st, cfg.Workers, ops)
	if err != nil {
		return nil, nil, err
	}
	info.Check = verdict
	rep.Correct = verdict == "ok"
	var all []pipeline.Result
	for _, r := range refs {
		all = append(all, r...)
	}
	mapMean, recallMean := meanQuality(all)
	if !cfg.Trace {
		rep.Metrics["map_mean"] = metric{mapMean, "ratio"}
		rep.Metrics["recall_mean"] = metric{recallMean, "ratio"}
	}
	// Counts of the first op on dataset 0: the same grid in every run.
	info.Counts = gridCounts(ops[0])

	if cfg.Trace {
		if err := gridLayers(ctx, cfg, traced, tr, log, rep, info); err != nil {
			return nil, nil, err
		}
	}
	return rep, info, nil
}

// gridCheck compares every op against a Workers=1 grid of the same spec
// (results and, through a list-capturing run at the workload's worker
// count, the ranked lists). It returns "ok" or the first mismatch, and
// the reference results.
func gridCheck(ctx context.Context, st gridState, workers int, ops []gridOp) (string, [][]pipeline.Result, error) {
	refs := make([][]pipeline.Result, gridDatasets)
	var refLists map[string][]core.ScoredSubspace
	for j := range refs {
		var lists map[string][]core.ScoredSubspace
		var err error
		refs[j], lists, err = capturedGrid(ctx, st.ds[j], st.gt[j], 1)
		if err != nil {
			return "", nil, fmt.Errorf("reference grid: %w", err)
		}
		if j == 0 {
			refLists = lists
		}
	}
	_, lists, err := capturedGrid(ctx, st.ds[0], st.gt[0], workers)
	if err != nil {
		return "", nil, fmt.Errorf("captured grid: %w", err)
	}
	if !reflect.DeepEqual(refLists, lists) {
		return fmt.Sprintf("ranked lists at %d workers differ from Workers=1", workers), refs, nil
	}
	for i, op := range ops {
		if err := cellErr(op.Results); err != nil {
			return fmt.Sprintf("op %d: %v", i, err), refs, nil
		}
		if msg := sameResults(refs[op.Data], op.Results); msg != "" {
			return fmt.Sprintf("op %d: %s", i, msg), refs, nil
		}
	}
	return "ok", refs, nil
}

// gridCounts are one op's exact program counters.
func gridCounts(op gridOp) map[string]int64 {
	c := planeCounts(op.Plane)
	c["memo.calls"] = int64(op.Memo.Calls)
	c["memo.hits"] = int64(op.Memo.Hits)
	c["cells"] = int64(len(op.Results))
	return c
}

// gridLayers derives the per-layer metrics of the traced ops: pipeline,
// explainer and detector figures from the results and spans, neighbour
// tiers from a replay of each op's recorded views.
func gridLayers(ctx context.Context, cfg runConfig, ops []gridOp, tr *tracer, log *viewLog, rep *report, info *runInfo) error {
	spans := tr.snapshot()
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Op] = true
		}
	}
	opIDs := sortedKeys(roots)
	if len(opIDs) != len(ops) {
		return fmt.Errorf("trace: %d op spans for %d ops", len(opIDs), len(ops))
	}
	pointAlgos := map[string]bool{}
	for _, pp := range pipeline.PointPipelines(pipeline.NamedDetector{Name: "LOF", Detector: detector.NewLOF(0)}, gridAlgoSeed, pipeline.Options{}) {
		pointAlgos[pp.Explainer.Name()] = true
	}
	var pack, explainMS, summMS, scoreMS, memoRatio, planeRatio, comps []float64
	var ledgers []tierLedger
	for i, op := range ops {
		var cellSum time.Duration
		var e, s, sc float64
		for _, r := range op.Results {
			cellSum += r.Duration
			sc += ms(r.ScoringTime)
			if pointAlgos[r.Explainer] {
				e += ms(r.SearchTime)
			} else {
				s += ms(r.SearchTime)
			}
		}
		pack = append(pack, float64(cellSum)/(float64(cfg.Workers)*float64(op.Wall)))
		explainMS = append(explainMS, e)
		summMS = append(summMS, s)
		scoreMS = append(scoreMS, sc)
		memoRatio = append(memoRatio, ratio(op.Memo.Hits, op.Memo.Calls))
		planeRatio = append(planeRatio, ratio(op.Plane.Hits, op.Plane.Queries))
		comps = append(comps, float64(op.Plane.Computations))

		if i >= gridReplayOps {
			continue
		}
		led, err := replayViews(ctx, log.take(opIDs[i]), gridKs)
		if err != nil {
			return err
		}
		if msg := diffCounts(planeCounts(op.Plane), planeCounts(led.Stats)); msg != "" {
			info.Check = "replay counters differ from live: " + msg
			rep.Correct = false
		}
		ledgers = append(ledgers, led)
	}
	m := rep.Metrics
	m["pipeline.pack_efficiency"] = metric{median(pack), "ratio"}
	m["explain.search_ms"] = metric{median(explainMS), "ms"}
	m["summarize.search_ms"] = metric{median(summMS), "ms"}
	m["detector.score_ms"] = metric{median(scoreMS), "ms"}
	m["detector.compute_ms"] = metric{medianOf(sumByName(spans, "detector.compute")), "ms"}
	m["detector.memo_hit_ratio"] = metric{median(memoRatio), "ratio"}
	m["neighbors.plane_hit_ratio"] = metric{median(planeRatio), "ratio"}
	m["neighbors.plane_computations"] = metric{median(comps), "count"}
	tierMetrics(ledgers, m)
	idleLayers(m)
	return tr.write(fmt.Sprintf("grid_10d-seed%d", cfg.Seed))
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
