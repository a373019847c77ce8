package detector

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/subspace"
)

// goldenIForestScores holds, per view, the FNV-64a hash of the IEEE-754 bit
// patterns of the score vector TestIForestScoresGolden produces. The hashes
// were recorded before any tuning of the forest's build or traversal, so
// they pin the whole path arithmetic — tree construction, leaf terms and
// the c(ψ) normalisation — across commits. iforest_reference_test.go cannot
// do that: it shares iTree and pathLength with production.
var goldenIForestScores = map[string]uint64{
	"2d": 0x811d71f0f0e6300a,
	"3d": 0xd574604992c482ee,
	"8d": 0xbd15e900b8b89802,
}

// TestIForestScoresGolden scores a seeded, tie-heavy 400×8 dataset (values
// on a coarse lattice plus duplicated rows, so splits land on ties and
// leaves hold several identical points) with the paper's iForest settings,
// serially and with three workers, and requires every score vector to hash
// to its recorded value.
func TestIForestScoresGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	const n, d = 400, 8
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(7)) * 0.5
		}
	}
	for i := 0; i < 40; i++ {
		copy(rows[rng.Intn(n)], rows[rng.Intn(n)])
	}
	ds, err := dataset.FromRows("iforest-golden", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name string
		view *dataset.View
	}{
		{"2d", ds.View(subspace.New(1, 6))},
		{"3d", ds.View(subspace.New(0, 3, 5))},
		{"8d", ds.FullView()},
	}
	for _, workers := range []int{1, 3} {
		f := &IsolationForest{Seed: 7, Workers: workers}
		for _, v := range views {
			scores, err := f.Scores(context.Background(), v.view)
			if err != nil {
				t.Fatalf("%s/w%d: %v", v.name, workers, err)
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
			if got, want := h.Sum64(), goldenIForestScores[v.name]; got != want {
				t.Errorf("%s/w%d: score hash %#016x, want %#016x", v.name, workers, got, want)
			}
		}
	}
}
