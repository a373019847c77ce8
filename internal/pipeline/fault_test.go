package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/explain"
	"anex/internal/parallel"
)

// trivialExplainer returns the first targetDim features as the single
// explanation for every point — cheap, deterministic, and error-free.
type trivialExplainer struct{ name string }

func (e trivialExplainer) Name() string { return e.name }

func (e trivialExplainer) ExplainPoint(_ context.Context, ds *dataset.Dataset, _, targetDim int) ([]core.ScoredSubspace, error) {
	return []core.ScoredSubspace{{Subspace: ds.FullView().Subspace()[:targetDim], Score: 1}}, nil
}

// panicExplainer crashes on every point.
type panicExplainer struct{}

func (panicExplainer) Name() string { return "panicky" }

func (panicExplainer) ExplainPoint(context.Context, *dataset.Dataset, int, int) ([]core.ScoredSubspace, error) {
	panic("injected cell crash")
}

// blockingExplainer blocks until its context is cancelled, then reports the
// context's error — the stand-in for a cell that overruns its deadline.
type blockingExplainer struct{}

func (blockingExplainer) Name() string { return "blocking" }

func (blockingExplainer) ExplainPoint(ctx context.Context, _ *dataset.Dataset, _, _ int) ([]core.ScoredSubspace, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// faultGridSpec builds a three-cell override grid in which the middle cell
// runs the given explainer and the outer cells run trivial ones.
func faultGridSpec(ds *dataset.Dataset, gt *dataset.GroundTruth, middle core.PointExplainer) GridSpec {
	return GridSpec{
		Dataset:     ds,
		GroundTruth: gt,
		Dims:        []int{2},
		PointPipelines: []PointPipeline{
			{Detector: "A", Explainer: trivialExplainer{name: "t0"}},
			{Detector: "B", Explainer: middle},
			{Detector: "C", Explainer: trivialExplainer{name: "t2"}},
		},
		Workers: 2,
	}
}

// TestRunGridPanicCellIsolated is the panic-containment contract: a cell
// whose explainer panics yields a grid where exactly that cell carries the
// panic as its Err (stack attached) and every other cell matches a clean run.
func TestRunGridPanicCellIsolated(t *testing.T) {
	ds, gt := testbed(t, 40)
	clean, err := RunGrid(context.Background(), faultGridSpec(ds, gt, trivialExplainer{name: "panicky"}))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := RunGrid(context.Background(), faultGridSpec(ds, gt, panicExplainer{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != 3 || len(clean) != 3 {
		t.Fatalf("cell counts: %d clean, %d faulty", len(clean), len(faulty))
	}
	for i, r := range faulty {
		if i == 1 {
			var pe *parallel.PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("panicking cell Err = %v, want *parallel.PanicError", r.Err)
			}
			if pe.Value != "injected cell crash" {
				t.Errorf("panic value %v", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic stack not captured")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy cell %d infected: %v", i, r.Err)
		}
		if r.MAP != clean[i].MAP || r.MeanRecall != clean[i].MeanRecall ||
			!reflect.DeepEqual(r.PerPoint, clean[i].PerPoint) {
			t.Errorf("healthy cell %d diverged from the clean run", i)
		}
	}
}

// TestRunGridCellTimeoutIsolated is the per-cell deadline contract: with
// CellTimeout set, a cell that overruns is abandoned with DeadlineExceeded
// while the rest of the grid completes normally.
func TestRunGridCellTimeoutIsolated(t *testing.T) {
	ds, gt := testbed(t, 41)
	spec := faultGridSpec(ds, gt, blockingExplainer{})
	spec.CellTimeout = 30 * time.Millisecond
	results, err := RunGrid(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 1 {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Errorf("blocked cell Err = %v, want DeadlineExceeded", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("fast cell %d hit the slow cell's deadline: %v", i, r.Err)
		}
	}
}

// TestRunGridCancelStampsUnfinishedCells: cancelling the grid's own context
// marks every unfinished cell with context.Canceled, and completed cells
// keep their results.
func TestRunGridCancelStampsUnfinishedCells(t *testing.T) {
	ds, gt := testbed(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	spec := GridSpec{
		Dataset:     ds,
		GroundTruth: gt,
		Dims:        []int{2},
		PointPipelines: []PointPipeline{
			{Detector: "A", Explainer: trivialExplainer{name: "t0"}},
			{Detector: "B", Explainer: cancelOnEntry{name: "cancel-on-entry", cancel: cancel}},
			{Detector: "C", Explainer: trivialExplainer{name: "t2"}},
		},
		Workers: 1, // serial cells: deterministic completion prefix
	}
	results, err := RunGrid(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("cell finished before cancellation carries %v", results[0].Err)
	}
	for i, r := range results[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("unfinished cell %d Err = %v, want Canceled", i+1, r.Err)
		}
	}
}

// cancelOnEntry cancels the grid the moment its cell starts, then defers to
// the context-aborted path.
type cancelOnEntry struct {
	name   string
	cancel context.CancelFunc
}

func (c cancelOnEntry) Name() string { return c.name }

func (c cancelOnEntry) ExplainPoint(ctx context.Context, _ *dataset.Dataset, _, _ int) ([]core.ScoredSubspace, error) {
	c.cancel()
	<-ctx.Done()
	return nil, ctx.Err()
}

// resumePipelines builds the real deterministic pipelines used by the
// resume contract test. When interruptAt >= 0 and cancel is non-nil, the
// pipeline at that index cancels the grid as soon as its cell starts.
func resumePipelines(interruptAt int, cancel context.CancelFunc) []PointPipeline {
	mk := func(name string, k int) PointPipeline {
		return PointPipeline{
			Detector:  name,
			Explainer: &explain.Beam{Detector: detector.NewLOF(k), Width: 6, TopK: 6, FixedDim: true},
		}
	}
	pps := []PointPipeline{mk("LOF-10", 10), mk("LOF-15", 15), mk("LOF-20", 20), mk("LOF-25", 25)}
	if interruptAt >= 0 && cancel != nil {
		pps[interruptAt].Explainer = cancelOnEntry{name: pps[interruptAt].Explainer.Name(), cancel: cancel}
	}
	return pps
}

// stripTimings zeroes every wall-clock field so results can be compared for
// byte-identity: timings are the one legitimately non-deterministic part of
// a Result.
func stripTimings(results []Result) []Result {
	out := append([]Result(nil), results...)
	for i := range out {
		out[i].Duration, out[i].ScoringTime, out[i].SearchTime, out[i].EvalTime = 0, 0, 0, 0
	}
	return out
}

// TestRunGridJournalResumeByteIdentical is the checkpoint/resume contract:
// a grid cancelled midway with a journal, then re-run against the same
// journal, reproduces the uninterrupted grid's results exactly — journaled
// cells replayed, unfinished cells recomputed, nothing double-counted.
func TestRunGridJournalResumeByteIdentical(t *testing.T) {
	ds, gt := testbed(t, 43)
	path := filepath.Join(t.TempDir(), "grid.journal")
	// The interruption scenario below depends on cells 0–1 finishing before
	// cell 2 cancels the grid. Every cell, the interrupting stub included,
	// reports one explainer name and a detector without a cost prior, so
	// their estimates tie and the serial grid dispatches them in order.
	base := GridSpec{Dataset: ds, GroundTruth: gt, Dims: []int{2}, Workers: 1}

	// Reference: one uninterrupted run, no journal.
	ref := base
	ref.PointPipelines = resumePipelines(-1, nil)
	want, err := RunGrid(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cell 2 cancels the grid on entry. Cells 0–1 complete
	// and are journaled; cells 2–3 abort with context.Canceled.
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.PointPipelines = resumePipelines(2, cancel)
	interrupted.Journal = j1
	partial, err := RunGrid(ctx, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if partial[0].Err != nil || partial[1].Err != nil {
		t.Fatalf("completed cells errored: %v, %v", partial[0].Err, partial[1].Err)
	}
	if !errors.Is(partial[2].Err, context.Canceled) || !errors.Is(partial[3].Err, context.Canceled) {
		t.Fatalf("interrupted cells carry %v, %v — want Canceled", partial[2].Err, partial[3].Err)
	}

	// Resume: fresh journal handle on the same file, healthy pipelines,
	// live context. The journaled prefix must be served, not recomputed.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal replayed %d cells, want the 2 that completed", j2.Len())
	}
	resumed := base
	resumed.PointPipelines = resumePipelines(-1, nil)
	resumed.Journal = j2
	got, err := RunGrid(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
		t.Errorf("resumed grid differs from the uninterrupted run:\ngot  %+v\nwant %+v",
			stripTimings(got), stripTimings(want))
	}
}

// TestRunGridJournalReplaysDeterministicFailures: a cell that failed for a
// non-context reason IS journaled, and a resumed run replays the failure
// instead of recomputing the cell.
func TestRunGridJournalReplaysDeterministicFailures(t *testing.T) {
	ds, gt := testbed(t, 44)
	path := filepath.Join(t.TempDir(), "fail.journal")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultGridSpec(ds, gt, panicExplainer{})
	spec.Journal = j1
	first, err := RunGrid(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if first[1].Err == nil {
		t.Fatal("panic cell did not fail")
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("journal holds %d cells, want all 3 (failures included)", j2.Len())
	}
	// Replace the panicking explainer with a healthy one: the journal must
	// still replay the recorded failure rather than rerun the cell.
	spec2 := faultGridSpec(ds, gt, trivialExplainer{name: "panicky"})
	spec2.Journal = j2
	second, err := RunGrid(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if second[1].Err == nil {
		t.Error("journaled failure was recomputed instead of replayed")
	}
}
