package neighbors_test

import (
	"math"
	"math/rand"
	"testing"

	"anex/internal/neighbors"
)

// scratchWidthIndexes builds one index per implementation tier, each over a
// view of a DIFFERENT dimensionality, mirroring how the detector sweep
// drives one per-worker scratch through every subspace width of a dataset
// back to back (widest full-space view first, then the narrow subspaces).
func scratchWidthIndexes() []struct {
	name string
	ix   neighbors.Index
	n    int
} {
	rng := rand.New(rand.NewSource(11))
	gen := func(n, d int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			pts[i] = p
		}
		return pts
	}
	wide := gen(400, 20)
	mid := gen(150, 12)
	narrow := gen(200, 4)
	return []struct {
		name string
		ix   neighbors.Index
		n    int
	}{
		{"landmark-20d", neighbors.NewLandmarkIndex(wide), len(wide)},
		{"brute-12d", neighbors.NewBruteForce(mid), len(mid)},
		{"kdtree-4d", neighbors.NewKDTree(narrow), len(narrow)},
	}
}

// TestScratchReuseAcrossWidths pins the Scratch reuse contract stated on
// its type: every buffer is sized by k, never by view width, and is fully
// rewritten before it is read. One scratch is driven through indexes of
// three different dimensionalities and implementations in both directions
// (wide→narrow and narrow→wide), with varying k so the buffers shrink and
// regrow; every answer must be bit-identical to a fresh-scratch query.
// A stale buffer carrying state from a wider view, or an over-read of a
// previous query's longer result, fails the bitwise compare.
func TestScratchReuseAcrossWidths(t *testing.T) {
	indexes := scratchWidthIndexes()
	shared := neighbors.NewScratch()
	order := []int{0, 1, 2, 2, 1, 0, 1} // wide→narrow, then narrow→wide
	for _, k := range []int{15, 3, 40, 1} {
		for _, which := range order {
			tc := indexes[which]
			for _, i := range []int{0, tc.n / 2, tc.n - 1} {
				gotIdx, gotDist := tc.ix.KNNInto(i, k, shared)
				wantIdx, wantDist := tc.ix.KNNInto(i, k, neighbors.NewScratch())
				if len(gotIdx) != len(wantIdx) {
					t.Fatalf("%s k=%d i=%d: got %d neighbours, want %d",
						tc.name, k, i, len(gotIdx), len(wantIdx))
				}
				for j := range wantIdx {
					if gotIdx[j] != wantIdx[j] {
						t.Fatalf("%s k=%d i=%d: idx[%d]=%d with reused scratch, want %d",
							tc.name, k, i, j, gotIdx[j], wantIdx[j])
					}
					if math.Float64bits(gotDist[j]) != math.Float64bits(wantDist[j]) {
						t.Fatalf("%s k=%d i=%d: dist[%d] bits %x with reused scratch, want %x",
							tc.name, k, i, j,
							math.Float64bits(gotDist[j]), math.Float64bits(wantDist[j]))
					}
				}
			}
		}
	}
}

// TestScratchReuseAllocs pins the other half of the contract: once warm, a
// scratch crossing view widths allocates nothing — switching from a wide
// view to a narrow one (or back) must not trigger a reallocation, because
// no buffer is sized by width.
func TestScratchReuseAllocs(t *testing.T) {
	indexes := scratchWidthIndexes()
	s := neighbors.NewScratch()
	for _, tc := range indexes { // warm across every width at the largest k
		tc.ix.KNNInto(0, 40, s)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, which := range []int{0, 2, 1, 0} {
			tc := indexes[which]
			for _, k := range []int{40, 5} {
				tc.ix.KNNInto(1, k, s)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cross-width scratch queries allocated %.1f times per run, want 0", allocs)
	}
}
