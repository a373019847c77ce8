package neighbors

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anex/internal/synth"
)

// landmarkCases are the degenerate-input datasets of the pruned tier's
// bit-identicality property: the shapes where metric pruning classically
// goes wrong (duplicates collapse bounds to zero, ties sit exactly on the
// radius, k exceeds the point count, a single landmark gives the weakest
// possible bound). Each must produce neighbour sets bit-identical to the
// unpruned index at any worker count — the companion property to
// TestPlanePrefixSlicingProperty one layer down.
func landmarkCases() map[string][][]float64 {
	cases := make(map[string][][]float64)

	rng := rand.New(rand.NewSource(7))
	random := make([][]float64, 400)
	for i := range random {
		p := make([]float64, 14)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		random[i] = p
	}
	cases["random-14d"] = random

	// Duplicate-heavy: 60 distinct rows, each repeated 6 times — most
	// candidate distances are exactly zero or exactly repeated, so the
	// boundary tie-break does all the work.
	dup := make([][]float64, 0, 360)
	for i := 0; i < 60; i++ {
		p := make([]float64, 12)
		for j := range p {
			p[j] = rng.Float64() * 3
		}
		for r := 0; r < 6; r++ {
			dup = append(dup, p)
		}
	}
	cases["duplicate-heavy"] = dup

	// Lattice: every coordinate from {0,1,2}, so almost all distances are
	// massively tied and land exactly on the prune radius.
	lattice := make([][]float64, 320)
	for i := range lattice {
		p := make([]float64, 12)
		for j := range p {
			p[j] = float64(rng.Intn(3))
		}
		lattice[i] = p
	}
	cases["lattice-ties"] = lattice

	// All rows identical: every distance is zero; the bound can never
	// fire and the k-set is decided purely by index order.
	same := make([][]float64, 280)
	row := make([]float64, 11)
	for j := range row {
		row[j] = 0.5
	}
	for i := range same {
		same[i] = row
	}
	cases["all-identical"] = same

	return cases
}

// TestLandmarkPrunedBitIdentical pins the tier's core contract: for every
// degenerate dataset, landmark count (including the single-landmark
// minimum and the automatic pick), neighbourhood size (including k ≥ n),
// and worker count, the pruned index answers bit-identically to the plain
// brute-force scan — indices and distance bit patterns both.
func TestLandmarkPrunedBitIdentical(t *testing.T) {
	ctx := context.Background()
	for name, points := range landmarkCases() {
		t.Run(name, func(t *testing.T) {
			n := len(points)
			brute := NewBruteForce(points)
			for _, nl := range []int{0, 1, 2, 7, 64} {
				pruned := newLandmarkIndex(points, nl, quantTileDefault)
				for _, k := range []int{1, 5, 15, n - 1, n + 10} {
					wantIdx, wantDist, wantM, err := AllKNNFlat(ctx, brute, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						gotIdx, gotDist, gotM, err := AllKNNFlat(ctx, pruned, k, workers)
						if err != nil {
							t.Fatal(err)
						}
						if gotM != wantM || len(gotIdx) != len(wantIdx) {
							t.Fatalf("nl=%d k=%d w=%d: shape m=%d len=%d, want m=%d len=%d",
								nl, k, workers, gotM, len(gotIdx), wantM, len(wantIdx))
						}
						for i := range wantIdx {
							if gotIdx[i] != wantIdx[i] {
								t.Fatalf("nl=%d k=%d w=%d: idx[%d]=%d, want %d (point %d slot %d)",
									nl, k, workers, i, gotIdx[i], wantIdx[i], i/wantM, i%wantM)
							}
							if math.Float64bits(gotDist[i]) != math.Float64bits(wantDist[i]) {
								t.Fatalf("nl=%d k=%d w=%d: dist[%d] bits %x, want %x",
									nl, k, workers, i, math.Float64bits(gotDist[i]), math.Float64bits(wantDist[i]))
							}
						}
					}
				}
			}
		})
	}
}

// figure9Points regenerates the Figure-9 reference workload at full scale:
// the paper's 1000-point 20d planted-subspace dataset (benchDataset in the
// root bench harness, seed 1), materialised to flat rows.
func figure9Points(t testing.TB) [][]float64 {
	t.Helper()
	ds, _, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "prune-gate",
		TotalDims:           20,
		SubspaceDims:        []int{2, 3},
		N:                   1000,
		OutliersPerSubspace: 5,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.FullView().Points()
}

// TestPruneEffectivenessFigure9 is the check.sh prune-effectiveness gate:
// on the Figure-9 reference workload (20d, n=1000, k=15 — the widest, most
// expensive views the detectors score), the landmark bound must reject
// enough of the candidate stream that at most 60% still reaches the
// distance kernel. This is a deterministic property of the data and the
// seeded selection, not a timing assertion, so it cannot flake with host
// load.
func TestPruneEffectivenessFigure9(t *testing.T) {
	points := figure9Points(t)
	ix := newLandmarkIndex(points, 0, quantTileDefault)
	if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.(interface{ PruneStats() PruneStats }).PruneStats()
	if st.Candidates == 0 || st.Skipped == 0 {
		t.Fatalf("landmark tier did not engage: %+v", st)
	}
	frac := st.ScanFraction()
	t.Logf("figure-9 reference workload: %d candidates, %d scanned, %d skipped, scan fraction %.3f (landmarks %d, build %v)",
		st.Candidates, st.Scanned, st.Skipped, frac, st.Landmarks, st.BuildTime)
	if frac > 0.6 {
		t.Fatalf("candidate-scan fraction %.3f > 0.6 on the Figure-9 reference workload", frac)
	}
}
