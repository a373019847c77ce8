package pipeline

import (
	"context"
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

func planeGridOptions() Options {
	return Options{BeamWidth: 8, RefOutPoolSize: 20, RefOutWidth: 8, LookOutBudget: 6, HiCSCutoff: 20, HiCSIterations: 10, TopK: 8}
}

// TestGridSchedulerInvariance is the grid-level determinism contract of
// this layer: RunGrid's results are byte-identical (timings aside) with
// cost-aware scheduling on or off, at any worker count, with a shared
// neighbourhood plane, per-detector private planes, or no plane at all.
// Scheduling only reorders dispatch, and the plane only changes WHERE
// neighbourhoods are computed — never their values.
func TestGridSchedulerInvariance(t *testing.T) {
	ds, gt := planeTestbed(t)
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
