package detector

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/neighbors"
	"anex/internal/subspace"
)

// goldenKNNScores holds, per detector and view, the FNV-64a hash of the
// IEEE-754 bit patterns of the score vector TestKNNDetectorScoresGolden
// produces; every worker count and neighbourhood source must reproduce it.
// The hashes were recorded while batch and window scoring still had
// separate implementations, before both were folded onto one kernel per
// detector, so they pin the arithmetic across commits: a change to any
// operation or its order shows up here even though the batch and window
// paths can no longer disagree with each other.
var goldenKNNScores = map[string]uint64{
	"LOF/full":      0xca62995488f875d8,
	"LOF/2d":        0xe512ac1262f03378,
	"LOF/3d":        0xfc0d9af68402b44c,
	"FastABOD/full": 0xe7f6163ff339f9f3,
	"FastABOD/2d":   0xeed908c095022bfa,
	"FastABOD/3d":   0x2f3d418ad7266ec5,
	"kNN-dist/full": 0x4270c56109a32363,
	"kNN-dist/2d":   0x30090dca30671df0,
	"kNN-dist/3d":   0xead9de5d84477685,
}

// TestKNNDetectorScoresGolden scores a seeded 200×6 dataset with duplicated
// rows through each kNN detector at the paper's k, serially and in
// parallel, with a private per-view index (nil plane: KD-tree) and through
// a private neighbourhood plane (full space: delta scan; 2d: delta sweep;
// 3d: full-space-seeded delta scan), and requires every score vector to
// hash to its recorded value.
func TestKNNDetectorScoresGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	const n, d = 200, 6
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	for _, dup := range [][2]int{{1, 0}, {2, 0}, {51, 50}, {120, 7}, {199, 7}} {
		copy(rows[dup[0]], rows[dup[1]])
	}
	ds, err := dataset.FromRows("golden", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name string
		view *dataset.View
	}{
		{"full", ds.FullView()},
		{"2d", ds.View(subspace.New(0, 3))},
		{"3d", ds.View(subspace.New(1, 2, 5))},
	}
	type planeScorer interface {
		Scores(context.Context, *dataset.View) ([]float64, error)
		SetNeighbors(*neighbors.Plane)
	}
	dets := []struct {
		name string
		mk   func(workers int) planeScorer
	}{
		{"LOF", func(w int) planeScorer { return &LOF{K: 15, Workers: w} }},
		{"FastABOD", func(w int) planeScorer { return &FastABOD{K: 10, Workers: w} }},
		{"kNN-dist", func(w int) planeScorer { return &KNNDist{K: 10, Workers: w} }},
	}
	for _, det := range dets {
		for _, workers := range []int{1, 4} {
			for _, plane := range []string{"nil", "private"} {
				s := det.mk(workers)
				var p *neighbors.Plane
				if plane == "private" {
					p = neighbors.NewPlane(0)
				}
				s.SetNeighbors(p)
				for _, v := range views {
					key := fmt.Sprintf("%s/%s", det.name, v.name)
					scores, err := s.Scores(context.Background(), v.view)
					if err != nil {
						t.Fatalf("%s/w%d/%s: %v", key, workers, plane, err)
					}
					h := fnv.New64a()
					var buf [8]byte
					for _, x := range scores {
						b := math.Float64bits(x)
						for i := range buf {
							buf[i] = byte(b >> (8 * i))
						}
						h.Write(buf[:])
					}
					if got, want := h.Sum64(), goldenKNNScores[key]; got != want {
						t.Errorf("%s/w%d/%s: score hash %#016x, want %#016x", key, workers, plane, got, want)
					}
				}
				if p != nil {
					// Every plane view went through the delta engine: one
					// unseeded full-space scan, one 2d sweep, one seeded scan.
					want := neighbors.DeltaStats{Queries: 3, SweepQueries: 1, FullSeeded: 1}
					if got := p.Stats().Delta; got != want {
						t.Errorf("%s/w%d: delta stats %+v, want %+v", det.name, workers, got, want)
					}
				}
			}
		}
	}
}
