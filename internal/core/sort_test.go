package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"anex/internal/subspace"
)

// sortByScoreReference is SortByScore as a sort.SliceStable closure over
// the allocated string keys: the order the ranked lists were defined by.
func sortByScoreReference(list []ScoredSubspace) {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].Score != list[j].Score {
			return list[i].Score > list[j].Score
		}
		return list[i].Subspace.Key() < list[j].Subspace.Key()
	})
}

// checkSortMatchesReference sorts one copy of in with SortByScore and one
// with the reference, and requires the same element at every position:
// equal subspace, equal Score bits, and the same backing array, so exact
// duplicates must keep the reference's permutation too.
func checkSortMatchesReference(t *testing.T, name string, in []ScoredSubspace) {
	t.Helper()
	got := append([]ScoredSubspace(nil), in...)
	want := append([]ScoredSubspace(nil), in...)
	SortByScore(got)
	sortByScoreReference(want)
	for i := range want {
		g, w := got[i], want[i]
		sameArray := len(w.Subspace) == 0 || &g.Subspace[0] == &w.Subspace[0]
		if !g.Subspace.Equal(w.Subspace) || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !sameArray {
			t.Fatalf("%s (n=%d): position %d is %v (bits %x), reference has %v (bits %x)",
				name, len(in), i, g.Subspace, math.Float64bits(g.Score), w.Subspace, math.Float64bits(w.Score))
		}
	}
}

// randomScored draws n entries whose scores come from a small pool (so
// ties are common) holding ±Inf and two NaN payloads, over subspaces of
// 1–4 features in [0, 13), where string and integer key orders differ.
func randomScored(rng *rand.Rand, n int) []ScoredSubspace {
	pool := []float64{
		-1.5, 0, 0.25, 0.25, 2, 3.75, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1),
	}
	out := make([]ScoredSubspace, n)
	for i := range out {
		feats := make([]int, 1+rng.Intn(4))
		for j := range feats {
			feats[j] = rng.Intn(13)
		}
		score := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			score = rng.NormFloat64()
		}
		out[i] = ScoredSubspace{Subspace: subspace.New(feats...), Score: score}
	}
	return out
}

func TestSortByScoreMatchesSliceStable(t *testing.T) {
	// Equal scores whose keys order differently as strings ("1,10" <
	// "1,2") than as feature lists ({1,2} < {1,10}).
	tie := []ScoredSubspace{scored("1,2", 1), scored("1,10", 1), scored("0,9", 1), scored("0,10", 1)}
	checkSortMatchesReference(t, "string-order tie", tie)
	SortByScore(tie)
	if tie[0].Subspace.Key() != "0,10" || tie[2].Subspace.Key() != "1,10" {
		t.Fatalf("string-order tie: got %v", tie)
	}

	// Exact duplicates (distinct arrays), ±Inf and NaN.
	var special []ScoredSubspace
	for r := 0; r < 3; r++ {
		special = append(special,
			scored("1,2", 0.5), scored("1,2", 0.5), scored("3,4", math.Inf(1)),
			scored("3,4", math.Inf(-1)), scored("5,6", math.NaN()), scored("1,2", math.NaN()),
			scored("2,7", 0.5), scored("", 0.5))
	}
	checkSortMatchesReference(t, "duplicates/Inf/NaN", special)

	// Lengths around the stable sort's 20-element insertion block.
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 19, 20, 21, 40, 41, 190, 1000} {
		for rep := 0; rep < 5; rep++ {
			checkSortMatchesReference(t, "random", randomScored(rng, n))
		}
	}
	for rep := 0; rep < 200; rep++ {
		checkSortMatchesReference(t, "random length", randomScored(rng, rng.Intn(300)))
	}
}
