package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/synth"
)

// knnDetectors builds fresh instances of the three kNN-backed detectors —
// the workload whose neighbourhood structure the plane deduplicates — all
// wired to the given plane (nil → every detector on its private fallback
// path).
func knnDetectors(p *neighbors.Plane) []NamedDetector {
	lof := detector.NewLOF(15)
	lof.SetNeighbors(p)
	abod := detector.NewFastABOD(10)
	abod.SetNeighbors(p)
	knn := detector.NewKNNDist(10)
	knn.SetNeighbors(p)
	return []NamedDetector{
		{Name: "LOF", Detector: lof},
		{Name: "FastABOD", Detector: abod},
		{Name: "kNN-dist", Detector: knn},
	}
}

func planeTestbed(t testing.TB) (*dataset.Dataset, *dataset.GroundTruth) {
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "grid-plane",
		TotalDims:           6,
		SubspaceDims:        []int{2, 2},
		N:                   160,
		OutliersPerSubspace: 3,
		Seed:                11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

// mixedTestbed plants a 2d and a 3d subspace, so a grid over dims {2, 3}
// has points to explain in every cell, 3d summary cells (LookOut, HiCS_FX)
// included; planeTestbed plants only 2d subspaces.
func mixedTestbed(t testing.TB) (*dataset.Dataset, *dataset.GroundTruth) {
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "grid-hics",
		TotalDims:           6,
		SubspaceDims:        []int{2, 3},
		N:                   160,
		OutliersPerSubspace: 3,
		Seed:                12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func planeGridOptions() Options {
	return Options{BeamWidth: 8, RefOutPoolSize: 20, RefOutWidth: 8, LookOutBudget: 6, HiCSCutoff: 20, HiCSIterations: 10, TopK: 8}
}

// TestGridSchedulerInvariance is the grid-level determinism contract of
// this layer: RunGrid's results are byte-identical (timings aside) with
// cost-aware scheduling on or off, at any worker count, with a shared
// neighbourhood plane, per-detector private planes, or no plane at all.
// Scheduling only reorders dispatch, and the plane only changes WHERE
// neighbourhoods are computed — never their values. It runs on both
// testbeds: on mixedTestbed every (explainer, dim) cell of the reference
// evaluates points, so the 3d summary cells' determinism is checked too.
func TestGridSchedulerInvariance(t *testing.T) {
	t.Run("plane", func(t *testing.T) {
		ds, gt := planeTestbed(t)
		checkGridSchedulerInvariance(t, ds, gt)
	})
	t.Run("mixed", func(t *testing.T) {
		ds, gt := mixedTestbed(t)
		want := checkGridSchedulerInvariance(t, ds, gt)
		evaluated := map[string]int{}
		for _, r := range want {
			evaluated[fmt.Sprintf("%s/%dd", r.Explainer, r.TargetDim)] += r.PointsEvaluated
		}
		if len(evaluated) != 8 {
			t.Fatalf("reference grid has %d (explainer, dim) cells, want 8", len(evaluated))
		}
		for cell, n := range evaluated {
			if n == 0 {
				t.Errorf("%s: no points evaluated in the reference run", cell)
			}
		}
	})
}

// checkGridSchedulerInvariance runs the invariance sweep on one testbed
// and returns the reference results.
func checkGridSchedulerInvariance(t *testing.T, ds *dataset.Dataset, gt *dataset.GroundTruth) []Result {
	t.Helper()
	opts := planeGridOptions()
	run := func(plane bool, noSched bool, workers int) []Result {
		var p *neighbors.Plane
		if plane {
			p = neighbors.NewPlane(0)
		}
		res, err := RunGrid(context.Background(), GridSpec{
			Dataset: ds, GroundTruth: gt, Dims: []int{2, 3}, Seed: 5,
			Options: opts, Detectors: knnDetectors(p),
			Workers: workers, NoSched: noSched,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("cell %s/%s/%dd failed: %v", r.Detector, r.Explainer, r.TargetDim, r.Err)
			}
		}
		return stripTimings(res)
	}
	want := run(false, true, 1) // unshared, FIFO, serial: the reference
	for _, plane := range []bool{false, true} {
		for _, noSched := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				got := run(plane, noSched, workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("plane=%v noSched=%v workers=%d: results differ from reference", plane, noSched, workers)
				}
			}
		}
	}
	return want
}

// TestGridPlaneDedupFactor asserts the plane actually pays for itself on
// the paper's workload shape: a grid pairing the three kNN detectors with
// all four explainers must answer at least 1.5 neighbourhood queries per
// kNN computation (the ISSUE-5 floor; three detectors per subspace put the
// ideal near 3).
func TestGridPlaneDedupFactor(t *testing.T) {
	ds, gt := planeTestbed(t)
	p := neighbors.NewPlane(0)
	res, err := RunGrid(context.Background(), GridSpec{
		Dataset: ds, GroundTruth: gt, Dims: []int{2}, Seed: 5,
		Options: planeGridOptions(), Detectors: knnDetectors(p), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %s/%s failed: %v", r.Detector, r.Explainer, r.Err)
		}
	}
	st := p.Stats()
	if st.Queries == 0 || st.Computations == 0 {
		t.Fatalf("plane never engaged: %+v", st)
	}
	if f := st.DedupFactor(); f < 1.5 {
		t.Errorf("dedup factor %.2f < 1.5: %s", f, st)
	}
}

// TestGridSpecPlaneWiring: GridSpec.Plane reaches the factory-built kNN
// detectors — running the default grid against an injected plane populates
// exactly that plane.
func TestGridSpecPlaneWiring(t *testing.T) {
	ds, gt := planeTestbed(t)
	p := neighbors.NewPlane(0)
	res, err := RunGrid(context.Background(), GridSpec{
		Dataset: ds, GroundTruth: gt, Dims: []int{2}, Seed: 5,
		Options: planeGridOptions(), Cached: true, Plane: p, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("empty grid")
	}
	if st := p.Stats(); st.Queries == 0 {
		t.Fatalf("injected plane never queried: %+v", st)
	}
}

// TestGridHiCSMatchesStandalone: a grid's HiCS_FX cells, which share one
// contrast search per dimensionality across detectors, equal the same
// pipelines run through RunSummarization outside any grid, each with its
// own search. TestGridSchedulerInvariance cannot show this: its reference
// grid shares the search too.
func TestGridHiCSMatchesStandalone(t *testing.T) {
	// mixedTestbed's 3d subspace gives the 3d HiCS_FX cells points to
	// explain, so they run their search.
	ds, gt := mixedTestbed(t)
	opts := planeGridOptions()
	dims := []int{2, 3}
	res, err := RunGrid(context.Background(), GridSpec{
		Dataset: ds, GroundTruth: gt, Dims: dims, Seed: 5,
		Options: opts, Detectors: knnDetectors(nil), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Result{}
	for _, r := range stripTimings(res) {
		if r.Explainer == "HiCS_FX" {
			got[fmt.Sprintf("%s/%d", r.Detector, r.TargetDim)] = r
		}
	}
	checked := 0
	for _, dim := range dims {
		for _, d := range knnDetectors(nil) {
			for _, sp := range SummaryPipelines(d, 5, opts) {
				if sp.Summarizer.Name() != "HiCS_FX" {
					continue
				}
				key := fmt.Sprintf("%s/%d", d.Name, dim)
				want := stripTimings([]Result{RunSummarization(context.Background(), ds, gt, sp, dim)})[0]
				if want.Err != nil {
					t.Fatalf("%s: %v", key, want.Err)
				}
				if !reflect.DeepEqual(got[key], want) {
					t.Errorf("%s: grid cell differs from the standalone run", key)
				}
				checked++
			}
		}
	}
	if checked != 6 {
		t.Fatalf("compared %d HiCS_FX cells, want 6", checked)
	}
	for key, r := range got {
		if r.PointsEvaluated == 0 {
			t.Errorf("%s: no points evaluated, so the cell never searched", key)
		}
	}
}
