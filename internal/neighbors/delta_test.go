package neighbors_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/subspace"
)

// deltaDataset builds an n-point dataset over d gaussian features.
func deltaDataset(t *testing.T, name string, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	ds, err := dataset.New(name, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// referenceKNN answers AllKNN through the standard index path (the exact
// code the detectors fall back to when the engine declines a view).
func referenceKNN(t *testing.T, v *dataset.View, k int) ([]int32, []float64, int) {
	t.Helper()
	idx, dist, m, err := neighbors.AllKNNFlat(context.Background(), neighbors.NewIndex(v.Points()), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return idx, dist, m
}

// deltaPath names the delta-engine path a view must be answered by, as
// counted in PlaneStats.Delta.
type deltaPath string

const (
	pathSweep      deltaPath = "sweep"
	pathFullSeeded deltaPath = "full-seeded"
	pathScan       deltaPath = "scan" // unseeded: the full space itself
)

// checkDeltaMatches queries the plane for the view at the given worker
// count, requires the query to be computed through the named delta-engine
// path, and requires bit-identical neighbour indices and distances versus
// the standard path.
func checkDeltaMatches(t *testing.T, p *neighbors.Plane, v *dataset.View, k, workers int, want deltaPath) {
	t.Helper()
	before := p.Stats()
	checkPlaneMatches(t, p, v, k, workers)
	after := p.Stats()
	if after.Computations != before.Computations+1 {
		t.Fatalf("subspace %s workers=%d: answered from cache, want a computation", v.Subspace().Key(), workers)
	}
	b, a := before.Delta, after.Delta
	got := map[deltaPath]bool{
		pathSweep:      a.SweepQueries > b.SweepQueries,
		pathFullSeeded: a.FullSeeded > b.FullSeeded,
		pathScan: a.Queries > b.Queries &&
			a.SweepQueries == b.SweepQueries && a.FullSeeded == b.FullSeeded,
	}
	if !got[want] {
		t.Fatalf("subspace %s workers=%d: delta counters %+v → %+v, want the %s path", v.Subspace().Key(), workers, b, a, want)
	}
}

// chainPath is the path a staged chain's view takes: the 2d start sweeps,
// the full space is scanned unseeded, and every other stage seeds its scan
// from the full-space kNN.
func chainPath(v *dataset.View) deltaPath {
	switch v.Dim() {
	case 2:
		return pathSweep
	case v.NumFeatures():
		return pathScan
	}
	return pathFullSeeded
}

// randomChain draws a staged subspace chain over numFeatures: a random 2d
// start extended one random unseen feature at a time up to maxDim — the
// access pattern of a Beam search.
func randomChain(rng *rand.Rand, numFeatures, maxDim int) []subspace.Subspace {
	perm := rng.Perm(numFeatures)
	var chain []subspace.Subspace
	s := subspace.New(perm[0], perm[1])
	chain = append(chain, s)
	for d := 3; d <= maxDim; d++ {
		s = s.With(perm[d-1])
		chain = append(chain, s)
	}
	return chain
}

// TestDeltaMatchesIndexRandomChains is the core invariance property: along
// random staged subspace chains (2d → 5d), every stage answered by the
// engine — the 2d sweep or the full-space-seeded scan — is bit-identical to
// the standard index path, at 1 and at 4 workers (each replaying the chain
// on a fresh plane, so both worker counts really compute).
func TestDeltaMatchesIndexRandomChains(t *testing.T) {
	ds := deltaDataset(t, "chains", 300, 10, 1)
	const k = 15
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		chain := randomChain(rng, ds.D(), 5)
		for _, workers := range []int{1, 4} {
			p := neighbors.NewPlane(0)
			for _, s := range chain {
				v := ds.View(s)
				checkDeltaMatches(t, p, v, k, workers, chainPath(v))
			}
		}
	}
}

// TestDeltaColdHighDimQuery covers the full-space-seeded scan on its own: a
// fresh plane asked for a 3d–5d view straight away, with nothing else
// resident, must seed from the full-space neighbourhood and still match
// exactly.
func TestDeltaColdHighDimQuery(t *testing.T) {
	ds := deltaDataset(t, "cold", 256, 10, 2)
	for _, dim := range []int{3, 4, 5} {
		s := subspace.New()
		for f := 0; f < dim; f++ {
			s = s.With(2 * f) // spread features so no prefix is cached
		}
		for _, workers := range []int{1, 4} {
			p := neighbors.NewPlane(0) // fresh per query: nothing resident
			checkDeltaMatches(t, p, ds.View(s), 15, workers, pathFullSeeded)
		}
	}
}

// TestDeltaPruneTightParentRadii attacks near-duplicate coordinates under
// a full-space seed: dims 0–1 are four crowded clusters of spread 1e-9
// while dims 2–3 spread points ~1e3 apart, so every squared distance sums
// terms over twenty orders of magnitude apart (any accumulation order but
// SquaredEuclidean's changes the bits) and the 2d start is one mass of
// near-ties. The 3d stage seeds its scan from the full-space kNN, whose
// neighbours are ranked almost entirely by dim 3, which the view lacks.
// The 4d stage is the full space itself and takes the unseeded scan.
func TestDeltaPruneTightParentRadii(t *testing.T) {
	const n, k = 200, 10
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, 4)
	for f := 0; f < 2; f++ { // parent dims: 4 crowded clusters, spread 1e-9
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = float64(i%4) + 1e-9*rng.Float64()
		}
	}
	for f := 2; f < 4; f++ { // added dims: wide spread
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = 1e3 * rng.NormFloat64()
		}
	}
	ds, err := dataset.New("tight", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := []subspace.Subspace{
		subspace.New(0, 1),
		subspace.New(0, 1, 2),
		subspace.New(0, 1, 2, 3),
	}
	for _, workers := range []int{1, 4} {
		p := neighbors.NewPlane(0)
		for _, s := range chain {
			v := ds.View(s)
			checkDeltaMatches(t, p, v, k, workers, chainPath(v))
		}
	}
}

// TestDeltaLatticeTies feeds the engine lattice data — coordinates drawn
// from {0,1,2}, including exactly duplicated points and massive distance
// ties — so correctness hinges on the one k-nearest list's lexicographic
// (distance, index) order settling every boundary tie the same way on the
// delta paths as on the standard one. The second set of trials runs at the
// smallest view the engine accepts (64 points), where the scan's
// prefilled list takes k of only 63 candidates and
// duplicated points put zero-distance seeds at the k-th boundary; its
// chains end on the full space, whose unseeded scan prefills from the
// first k candidates.
func TestDeltaLatticeTies(t *testing.T) {
	const k = 15
	lattice := func(name string, n int, seed int64) *dataset.Dataset {
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]float64, 6)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := range cols[f] {
				cols[f][i] = float64(rng.Intn(3))
			}
		}
		ds, err := dataset.New(name, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	for _, c := range []struct {
		ds           *dataset.Dataset
		chainSeed    int64
		trials, maxD int
	}{
		{lattice("lattice", 128, 4), 5, 3, 5},
		{lattice("lattice-min", 64, 6), 7, 4, 6},
	} {
		rng2 := rand.New(rand.NewSource(c.chainSeed))
		for trial := 0; trial < c.trials; trial++ {
			chain := randomChain(rng2, c.ds.D(), c.maxD)
			for _, workers := range []int{1, 4} {
				p := neighbors.NewPlane(0)
				for _, s := range chain {
					v := c.ds.View(s)
					checkDeltaMatches(t, p, v, k, workers, chainPath(v))
				}
			}
		}
	}
}

// TestDeltaDetectorScoresBitIdentical closes the loop at the consumer
// layer: LOF with the shared plane wired in (whose compute path is the
// delta engine) produces bitwise the same score vectors as the plain index
// path, across a staged chain and worker counts — the property the
// explainers' output invariance rests on.
func TestDeltaDetectorScoresBitIdentical(t *testing.T) {
	ds := deltaDataset(t, "scores", 300, 8, 6)
	rng := rand.New(rand.NewSource(7))
	plane := neighbors.NewPlane(0)
	ctx := context.Background()
	for _, s := range randomChain(rng, ds.D(), 5) {
		v := ds.View(s)
		for _, workers := range []int{1, 4} {
			plainLOF := detector.NewLOF(15)
			plainLOF.Workers = workers
			plainLOF.Neighbors = nil // private index path
			deltaLOF := detector.NewLOF(15)
			deltaLOF.Workers = workers
			deltaLOF.SetNeighbors(plane)
			want, err := plainLOF.Scores(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := deltaLOF.Scores(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("LOF %s workers=%d: score[%d] bits %x, want %x",
						s.Key(), workers, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
