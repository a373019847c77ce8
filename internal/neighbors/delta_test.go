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

// checkDeltaMatches runs the engine on the view at the given worker count
// and requires bit-identical neighbour indices and distances versus the
// standard path. The engine must accept the view (ok=true).
func checkDeltaMatches(t *testing.T, eng *neighbors.DeltaEngine, v *dataset.View, k, workers int) {
	t.Helper()
	gotIdx, gotDist, gotM, ok, err := eng.AllKNN(context.Background(), v, k, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("engine rejected view %s (n=%d d=%d k=%d)", v.Subspace().Key(), v.N(), v.Dim(), k)
	}
	wantIdx, wantDist, wantM := referenceKNN(t, v, k)
	if gotM != wantM {
		t.Fatalf("subspace %s workers=%d: m=%d, want %d", v.Subspace().Key(), workers, gotM, wantM)
	}
	for i := range wantIdx {
		if gotIdx[i] != wantIdx[i] {
			p, s := i/gotM, i%gotM
			t.Fatalf("subspace %s workers=%d: point %d neighbour %d idx=%d, want %d",
				v.Subspace().Key(), workers, p, s, gotIdx[i], wantIdx[i])
		}
		if math.Float64bits(gotDist[i]) != math.Float64bits(wantDist[i]) {
			p, s := i/gotM, i%gotM
			t.Fatalf("subspace %s workers=%d: point %d neighbour %d dist bits %x, want %x",
				v.Subspace().Key(), workers, p, s,
				math.Float64bits(gotDist[i]), math.Float64bits(wantDist[i]))
		}
	}
}

// randomChain draws a staged subspace chain over numFeatures: a random 2d
// start extended one random unseen feature at a time up to maxDim — the
// access pattern of a Beam search, which is what makes the engine's
// parent-partial seeding kick in.
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
// engine — sweep, parent-seeded, or full-space-seeded — is bit-identical to
// the standard index path, at 1 and at 4 workers.
func TestDeltaMatchesIndexRandomChains(t *testing.T) {
	ds := deltaDataset(t, "chains", 300, 10, 1)
	const k = 15
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		eng := neighbors.NewDeltaEngine(0)
		for _, s := range randomChain(rng, ds.D(), 5) {
			for _, workers := range []int{1, 4} {
				checkDeltaMatches(t, eng, ds.View(s), k, workers)
			}
		}
	}
}

// TestDeltaColdHighDimQuery covers the full-space-seeded scan: a fresh
// engine asked for a 3d–5d view straight away (no 2d parent cached) must
// seed from the full-space neighbourhood and still match exactly.
func TestDeltaColdHighDimQuery(t *testing.T) {
	ds := deltaDataset(t, "cold", 256, 10, 2)
	for _, dim := range []int{3, 4, 5} {
		eng := neighbors.NewDeltaEngine(0) // fresh per dim: nothing cached
		s := subspace.New()
		for f := 0; f < dim; f++ {
			s = s.With(2 * f) // spread features so no prefix is cached
		}
		checkDeltaMatches(t, eng, ds.View(s), 15, 4)
	}
}

// TestDeltaPruneTightParentRadii attacks the parent-partial lower bound:
// the parent dims are near-duplicates (tiny parent distances, so the seed
// radius is extremely tight) while the added dimension spreads points far
// apart, forcing the scan to discard essentially every seed and re-rank on
// delta terms alone. Any off-by-epsilon in the pruning margin shows up here.
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
	eng := neighbors.NewDeltaEngine(0)
	chain := []subspace.Subspace{
		subspace.New(0, 1),
		subspace.New(0, 1, 2),
		subspace.New(0, 1, 2, 3),
	}
	for _, s := range chain {
		for _, workers := range []int{1, 4} {
			checkDeltaMatches(t, eng, ds.View(s), k, workers)
		}
	}
}

// TestDeltaLatticeTies feeds the engine lattice data — coordinates drawn
// from {0,1,2}, including exactly duplicated points and massive distance
// ties — so correctness hinges on the lexicographic (distance, index)
// ordering matching the standard path's bounded heap exactly.
func TestDeltaLatticeTies(t *testing.T) {
	const n, k = 128, 15
	rng := rand.New(rand.NewSource(4))
	cols := make([][]float64, 6)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = float64(rng.Intn(3))
		}
	}
	ds, err := dataset.New("lattice", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := neighbors.NewDeltaEngine(0)
	rng2 := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		for _, s := range randomChain(rng2, ds.D(), 5) {
			for _, workers := range []int{1, 4} {
				checkDeltaMatches(t, eng, ds.View(s), k, workers)
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
