package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
	"anex/internal/summarize"
)

// GridSpec describes a full Figure 7 grid execution: every detector paired
// with every point explainer and summarizer, across the requested
// explanation dimensionalities.
//
// Work shared between cells is paid for by whichever cell gets there
// first. Neighbourhoods come from the grid's one plane (see Plane), and the
// factory-built HiCS cells of one dimensionality share one contrast
// search: the first HiCS_FX cell of a dimension carries the search in its
// Duration and SearchTime, and the other detectors' HiCS_FX cells report
// their ranking (plus any wait on a search in flight). Per-cell runtimes
// therefore split a grid's cost rather than reproduce a standalone run's.
type GridSpec struct {
	// Dataset and GroundTruth define the workload.
	Dataset     *dataset.Dataset
	GroundTruth *dataset.GroundTruth
	// Dims lists the explanation dimensionalities to evaluate.
	Dims []int
	// Seed drives the stochastic algorithms.
	Seed int64
	// Options tunes the explainer hyper-parameters.
	Options Options
	// Cached shares per-subspace detector scores across the grid. Leave
	// false when the grid's purpose is timing.
	Cached bool
	// Detectors overrides the paper's three detectors (useful for
	// custom detectors or reduced hyper-parameters); nil selects them.
	// The Cached flag is not applied to overridden detectors — wrap them
	// with detector.NewCached as needed. The Plane field is likewise not
	// applied to overridden detectors: they keep the planes they were
	// built with, so inject one via SetNeighbors before handing them over.
	Detectors []NamedDetector
	// Plane is the neighbourhood cache wired into every factory-built kNN
	// detector (via SetNeighbors); nil gives the grid a private plane of
	// its own. Either way all cells of the grid share ONE plane, so each
	// (subspace, dataset) neighbourhood is computed once per grid, not
	// once per detector per cell. Pass a plane to read its Stats, or to
	// share it with work outside the grid.
	Plane *neighbors.Plane
	// NoSched disables cost-aware dispatch: cells are handed to workers in
	// their deterministic (dimension, detector, explainer) order instead of
	// longest-estimated-first. Results are byte-identical either way —
	// scheduling only affects wall-clock packing.
	NoSched bool
	// PointPipelines and SummaryPipelines, when either is non-nil,
	// replace the factory-built pipelines entirely: the grid runs exactly
	// the given pipelines per dimension, and Detectors/Options-driven
	// pipeline construction is skipped. This is the hook for running
	// custom or instrumented pipelines (e.g. fault-injection tests)
	// through the grid's isolation, timeout, and journaling machinery.
	// A pipeline's explicit Workers value is respected; zero picks up the
	// grid's automatic inner split.
	PointPipelines   []PointPipeline
	SummaryPipelines []SummaryPipeline
	// Workers is the grid's total worker budget; zero means GOMAXPROCS.
	// The budget is split between concurrent cells and each cell's inner
	// per-point loops (see parallel.Split): with more cells than budget
	// every worker runs whole cells serially inside; with few cells the
	// leftover budget fans out the per-point loops instead. Each unit of
	// work is independent and indexed, so results are identical at any
	// worker count. An explicit Options.Workers overrides the inner share.
	Workers int
	// CellTimeout, when positive, bounds each cell's wall-clock runtime
	// with its own deadline: a cell exceeding it is abandoned with
	// context.DeadlineExceeded as its Result.Err while every other cell
	// runs to completion.
	CellTimeout time.Duration
	// Journal, when set, checkpoints the grid: each completed cell is
	// appended to the journal as it finishes, and cells already recorded
	// (from this run or a previous one with the same spec) are skipped and
	// returned from the journal instead of recomputed. Cells that failed
	// with a context error — cancellation or cell timeout — are not
	// recorded, so a resumed run recomputes exactly the unfinished work.
	// The journal must come from OpenJournal and is not closed by RunGrid.
	Journal *Journal
}

// gridKind namespaces RunGrid's cells in a journal.
const gridKind = "grid"

// gridCell is one schedulable unit of the grid.
type gridCell struct {
	order     int
	detector  string
	explainer string
	dim       int
	run       func(ctx context.Context) Result
}

// RunGrid executes the grid and returns all cell results, deterministically
// ordered by (dimension, detector, explainer). An empty grid — no Dims or
// no detectors/pipelines — returns nil without spinning up workers.
//
// Fault tolerance: each cell runs in isolation — a panicking or timed-out
// cell records its failure in its own Result.Err and every other cell is
// unaffected. Cancelling ctx stops the grid between cells; cells already
// finished keep their results and cells never started (or aborted midway)
// carry ctx's error. The returned error reports journal I/O failures only —
// computation failures live in the per-cell Err fields.
func RunGrid(ctx context.Context, spec GridSpec) ([]Result, error) {
	numCells := countCells(spec)
	if numCells == 0 {
		return nil, nil
	}

	budget := spec.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers, inner := parallel.Split(budget, numCells)
	if spec.Options.Workers > 0 {
		inner = spec.Options.Workers // explicit inner knob wins
	}
	cells := buildCells(spec, inner)

	results := make([]Result, len(cells))
	ran := make([]bool, len(cells))

	// Serve journaled cells without scheduling them.
	var pending []gridCell
	for _, c := range cells {
		if spec.Journal != nil {
			if res, ok := spec.Journal.Lookup(gridKind, spec.Dataset.Name(), c.detector, c.explainer, c.dim); ok {
				results[c.order] = res
				ran[c.order] = true
				continue
			}
		}
		pending = append(pending, c)
	}

	var (
		journalMu  sync.Mutex
		journalErr error
	)
	recordJournal := func(res Result) {
		if spec.Journal == nil || isContextErr(res.Err) {
			return
		}
		if err := spec.Journal.Record(gridKind, res); err != nil {
			journalMu.Lock()
			if journalErr == nil {
				journalErr = err
			}
			journalMu.Unlock()
		}
	}

	runCell := func(c gridCell) Result {
		cellCtx := ctx
		cancel := context.CancelFunc(func() {})
		if spec.CellTimeout > 0 {
			cellCtx, cancel = context.WithTimeout(ctx, spec.CellTimeout)
		}
		res := c.run(cellCtx)
		cancel()
		// A cell abandoned because the whole GRID was cancelled should
		// carry the parent's error, not its private deadline's.
		if isContextErr(res.Err) {
			if perr := ctx.Err(); perr != nil {
				res.Err = perr
			}
		}
		recordJournal(res)
		return res
	}

	done := ctx.Done()
	sched := newCellScheduler(pending, !spec.NoSched)
	var wg sync.WaitGroup
	var resMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := sched.next()
				if !ok {
					return
				}
				var (
					res     Result
					elapsed time.Duration
				)
				cancelled := false
				if done != nil {
					select {
					case <-done:
						cancelled = true
					default:
					}
				}
				if cancelled {
					res = Result{
						Dataset:   spec.Dataset.Name(),
						Detector:  c.detector,
						Explainer: c.explainer,
						TargetDim: c.dim,
						Err:       ctx.Err(),
					}
				} else {
					start := time.Now()
					res = runCell(c)
					elapsed = time.Since(start)
				}
				sched.finish(c, elapsed)
				resMu.Lock()
				results[c.order] = res
				ran[c.order] = true
				resMu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Defensive: every cell must carry a result (journaled, computed, or
	// cancellation-stamped above); a gap would mean a scheduling bug.
	for i := range results {
		if !ran[i] {
			c := cells[i]
			results[i] = Result{
				Dataset:   spec.Dataset.Name(),
				Detector:  c.detector,
				Explainer: c.explainer,
				TargetDim: c.dim,
				Err:       errors.New("grid: cell was never scheduled"),
			}
		}
	}
	return results, journalErr
}

// countCells returns the number of cells the spec expands to, without
// building any closures.
func countCells(spec GridSpec) int {
	if spec.PointPipelines != nil || spec.SummaryPipelines != nil {
		return len(spec.Dims) * (len(spec.PointPipelines) + len(spec.SummaryPipelines))
	}
	dets := spec.Detectors
	if dets == nil {
		dets = NewDetectors(spec.Seed)
	}
	n := 0
	for range spec.Dims {
		for _, d := range dets {
			n += len(PointPipelines(d, spec.Seed, spec.Options)) +
				len(SummaryPipelines(d, spec.Seed, spec.Options))
		}
	}
	return n
}

// buildCells expands the spec into its deterministic cell list, ordered by
// (dimension, detector, explainer) and with the inner worker budget applied
// (explicitly-set Workers on override pipelines win).
func buildCells(spec GridSpec, inner int) []gridCell {
	var cells []gridCell
	order := 0
	add := func(det, expl string, dim int, run func(ctx context.Context) Result) {
		cells = append(cells, gridCell{order: order, detector: det, explainer: expl, dim: dim, run: run})
		order++
	}
	addPoint := func(pp PointPipeline, dim int) {
		if pp.Workers <= 0 {
			pp.Workers = inner
		}
		add(pp.Detector, pp.Explainer.Name(), dim, func(ctx context.Context) Result {
			return RunPointExplanation(ctx, spec.Dataset, spec.GroundTruth, pp, dim)
		})
	}
	addSummary := func(sp SummaryPipeline, dim int) {
		if sp.Workers <= 0 {
			sp.Workers = inner
		}
		add(sp.Detector, sp.Summarizer.Name(), dim, func(ctx context.Context) Result {
			return RunSummarization(ctx, spec.Dataset, spec.GroundTruth, sp, dim)
		})
	}
	if spec.PointPipelines != nil || spec.SummaryPipelines != nil {
		for _, dim := range spec.Dims {
			for _, pp := range spec.PointPipelines {
				addPoint(pp, dim)
			}
			for _, sp := range spec.SummaryPipelines {
				addSummary(sp, dim)
			}
		}
		return cells
	}
	// One set of detector instances per grid: with caching on, every
	// cell sharing a detector also shares its score memo (bounded by the
	// Options.CacheBytes budget).
	dets := spec.Detectors
	if dets == nil {
		dets = NewDetectors(spec.Seed)
		plane := spec.Plane
		if plane == nil {
			plane = neighbors.NewPlane(0)
		}
		// Inject before the cache wrap: the setter lives on the underlying
		// kNN detectors.
		for _, d := range dets {
			if ns, ok := d.Detector.(neighborsSetter); ok {
				ns.SetNeighbors(plane)
			}
		}
		if spec.Cached {
			for i := range dets {
				dets[i].Detector = detector.NewCachedBudget(dets[i].Detector, spec.Options.CacheBytes)
			}
		}
	}
	// The inner budget reaches the explainers' stage-scoring loops through
	// the factory, so an unset Options.Workers still parallelises candidate
	// scoring with the grid's automatic split.
	opts := spec.Options
	if opts.Workers <= 0 {
		opts.Workers = inner
	}
	// HiCS's contrast search ignores the detector, so the grid's HiCS cells
	// of one dimensionality share one search instead of running it once
	// per detector.
	opts.hicsSearches = summarize.NewSearchCache()
	for _, dim := range spec.Dims {
		for _, d := range dets {
			for _, pp := range PointPipelines(d, spec.Seed, opts) {
				// The factory already gave the explainer opts.Workers, so the
				// inner budget must NOT be applied to the per-point loop too:
				// that stacks to inner² goroutines per cell, and the cells
				// themselves already run `workers`-wide. The budget lives in
				// the candidate-scoring loops — points racing there would
				// mostly queue behind the score cache's singleflight anyway —
				// so the per-point loop stays serial.
				pp.Workers = 1
				addPoint(pp, dim)
			}
			// Summarizers have no internal worker knob, so the per-subspace
			// ranking loop is the budget's single application on this path.
			for _, sp := range SummaryPipelines(d, spec.Seed, opts) {
				sp.Workers = inner
				addSummary(sp, dim)
			}
		}
	}
	return cells
}

// neighborsSetter is the plane-injection hook the kNN detectors (LOF,
// FastABOD, KNNDist) implement; GridSpec.Plane reaches factory-built
// detectors through it.
type neighborsSetter interface {
	SetNeighbors(p *neighbors.Plane)
}

// isContextErr reports whether err is (or wraps) a context cancellation or
// deadline expiry.
func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}
