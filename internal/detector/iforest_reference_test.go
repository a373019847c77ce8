package detector

// The arena-based forest builder replaced a per-node-allocating recursion
// under a bit-identicality contract: same RNG draw sites, same stable
// partition, same leaf conditions, same scores. This file keeps the
// replaced recursion verbatim as an executable reference and pins the
// contract across subsample clamping, small ψ, 1d views, and multiple
// repetitions (the RNG stream spans repetitions, so any drift compounds).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
)

func oldBuildForest(v *dataset.View, trees, psi int, rng *rand.Rand) []*iTree {
	n := v.N()
	heightLimit := int(math.Ceil(math.Log2(float64(psi))))
	if heightLimit < 1 {
		heightLimit = 1
	}
	forest := make([]*iTree, trees)
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	for t := range forest {
		for i := 0; i < psi; i++ {
			j := i + rng.Intn(n-i)
			sample[i], sample[j] = sample[j], sample[i]
		}
		tree := &iTree{}
		oldBuild(tree, v, append([]int(nil), sample[:psi]...), 0, heightLimit, rng)
		forest[t] = tree
	}
	return forest
}

func oldBuild(t *iTree, v *dataset.View, idx []int, depth, limit int, rng *rand.Rand) int {
	nodeID := len(t.nodes)
	t.nodes = append(t.nodes, iNode{})
	if depth >= limit || len(idx) <= 1 || allIdentical(v, idx) {
		t.nodes[nodeID] = iNode{feature: -1, size: len(idx)}
		return nodeID
	}
	dim := v.Dim()
	var feature int
	var lo, hi float64
	found := false
	for attempt := 0; attempt < 8 && !found; attempt++ {
		feature = rng.Intn(dim)
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			val := v.Point(i)[feature]
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
		found = hi > lo
	}
	if !found {
		t.nodes[nodeID] = iNode{feature: -1, size: len(idx)}
		return nodeID
	}
	split := lo + rng.Float64()*(hi-lo)
	var left, right []int
	for _, i := range idx {
		if v.Point(i)[feature] < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		t.nodes[nodeID] = iNode{feature: -1, size: len(idx)}
		return nodeID
	}
	l := oldBuild(t, v, left, depth+1, limit, rng)
	r := oldBuild(t, v, right, depth+1, limit, rng)
	t.nodes[nodeID] = iNode{feature: feature, split: split, left: l, right: r}
	return nodeID
}

func oldScores(f *IsolationForest, v *dataset.View) []float64 {
	n := v.N()
	psi := f.subsample()
	if psi > n {
		psi = n
	}
	reps := f.repetitions()
	scores := make([]float64, n)
	base := f.Seed ^ hashString(v.Dataset().Name()+"|"+v.Subspace().Key())
	for r := 0; r < reps; r++ {
		rng := rand.New(rand.NewSource(base + int64(r)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
		forest := oldBuildForest(v, f.trees(), psi, rng)
		c := averagePathLength(float64(psi))
		for i := 0; i < n; i++ {
			var sum float64
			for _, t := range forest {
				sum += t.pathLength(v.Point(i))
			}
			e := sum / float64(len(forest))
			scores[i] += math.Pow(2, -e/c)
		}
	}
	for i := range scores {
		scores[i] /= float64(reps)
	}
	return scores
}

func TestArenaForestMatchesRecursiveReference(t *testing.T) {
	mk := func(n, d int, seed int64) *dataset.View {
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]float64, d)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := range cols[f] {
				cols[f][i] = rng.NormFloat64()
			}
		}
		ds, err := dataset.New("probe", cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ds.FullView()
	}
	cases := []struct {
		n, d  int
		trees int
		psi   int
		reps  int
	}{
		{1000, 3, 100, 256, 1},
		{1000, 3, 100, 256, 3},
		{300, 5, 50, 256, 2}, // psi clamped to n
		{100, 2, 30, 16, 2},  // small psi
		{64, 1, 20, 64, 1},   // psi == n, 1d
	}
	for _, tc := range cases {
		v := mk(tc.n, tc.d, 7)
		f := &IsolationForest{Trees: tc.trees, Subsample: tc.psi, Repetitions: tc.reps, Seed: 42, Workers: 4}
		got, err := f.Scores(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		want := oldScores(f, v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %+v: score[%d] = %v, want %v", tc, i, got[i], want[i])
			}
		}
	}
}
