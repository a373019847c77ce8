package detector

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/subspace"
)

// mustScores runs the detector and fails the test on error — the common
// case for tests exercising well-formed inputs.
func mustScores(t *testing.T, d core.Detector, v *dataset.View) []float64 {
	t.Helper()
	scores, err := d.Scores(context.Background(), v)
	if err != nil {
		t.Fatalf("%s.Scores: %v", d.Name(), err)
	}
	return scores
}

// clusterWithOutlier builds a 2d dataset: a dense Gaussian cluster of n−1
// points around the origin plus one point far away at (off, off). The
// outlier has index n−1.
func clusterWithOutlier(t *testing.T, n int, off float64, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n-1; i++ {
		cols[0][i] = rng.NormFloat64() * 0.3
		cols[1][i] = rng.NormFloat64() * 0.3
	}
	cols[0][n-1] = off
	cols[1][n-1] = off
	ds, err := dataset.New("cluster", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// twoClustersWithBridge builds the LOF motivating scenario: a dense cluster,
// a sparse cluster, and one point near (but not inside) the dense cluster.
// Global distance methods miss it; LOF must not.
func twoDensityClusters(t *testing.T, seed int64) (*dataset.Dataset, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var xs, ys []float64
	// Dense cluster at (0,0), σ = 0.05.
	for i := 0; i < 60; i++ {
		xs = append(xs, rng.NormFloat64()*0.05)
		ys = append(ys, rng.NormFloat64()*0.05)
	}
	// Sparse cluster at (5,5), σ = 1.
	for i := 0; i < 60; i++ {
		xs = append(xs, 5+rng.NormFloat64())
		ys = append(ys, 5+rng.NormFloat64())
	}
	// Local outlier just outside the dense cluster.
	outlier := len(xs)
	xs = append(xs, 0.6)
	ys = append(ys, 0.6)
	ds, err := dataset.New("density", [][]float64{xs, ys}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds, outlier
}

func argMax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

func TestLOFScoresInliersNearOne(t *testing.T) {
	ds := clusterWithOutlier(t, 200, 50, 1)
	scores := mustScores(t, NewLOF(15), ds.FullView())
	outlier := ds.N() - 1
	if got := argMax(scores); got != outlier {
		t.Fatalf("LOF top point = %d, want %d", got, outlier)
	}
	if scores[outlier] < 5 {
		t.Errorf("outlier LOF = %v, want ≫ 1", scores[outlier])
	}
	// Inliers hover around 1.
	var sum float64
	for i := 0; i < outlier; i++ {
		sum += scores[i]
	}
	mean := sum / float64(outlier)
	if mean < 0.8 || mean > 1.3 {
		t.Errorf("mean inlier LOF = %v, want ≈ 1", mean)
	}
}

func TestLOFFindsLocalOutlier(t *testing.T) {
	ds, outlier := twoDensityClusters(t, 2)
	scores := mustScores(t, NewLOF(15), ds.FullView())
	if got := argMax(scores); got != outlier {
		t.Fatalf("LOF missed the local density outlier: top = %d, want %d", got, outlier)
	}
}

func TestLOFDefaultsAndTinyData(t *testing.T) {
	l := NewLOF(0)
	if l.k() != DefaultLOFK {
		t.Errorf("default k = %d", l.k())
	}
	ds, err := dataset.New("one", [][]float64{{1}, {2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustScores(t, l, ds.FullView()); len(got) != 1 || got[0] != 1 {
		t.Errorf("single point scores = %v", got)
	}
}

func TestLOFDuplicatePoints(t *testing.T) {
	// Heavily duplicated data must not produce NaN/Inf scores.
	cols := [][]float64{{1, 1, 1, 1, 1, 9}, {1, 1, 1, 1, 1, 9}}
	ds, err := dataset.New("dup", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := mustScores(t, NewLOF(3), ds.FullView())
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score[%d] = %v", i, s)
		}
	}
	if argMax(scores) != 5 {
		t.Errorf("outlier not top: %v", scores)
	}
}

func TestFastABODFindsBorderPoint(t *testing.T) {
	ds := clusterWithOutlier(t, 120, 10, 3)
	scores := mustScores(t, NewFastABOD(10), ds.FullView())
	outlier := ds.N() - 1
	if got := argMax(scores); got != outlier {
		t.Fatalf("FastABOD top point = %d, want %d", got, outlier)
	}
}

func TestFastABODOrientation(t *testing.T) {
	// Higher score must mean more outlying (the raw ABOF is negated).
	ds := clusterWithOutlier(t, 100, 20, 4)
	scores := mustScores(t, NewFastABOD(10), ds.FullView())
	outlier := ds.N() - 1
	inlierScore := scores[0]
	if scores[outlier] <= inlierScore {
		t.Errorf("outlier score %v not above inlier score %v", scores[outlier], inlierScore)
	}
}

func TestFastABODDegenerate(t *testing.T) {
	l := NewFastABOD(0)
	if l.k() != DefaultABODK {
		t.Errorf("default k = %d", l.k())
	}
	// Two points: no angle pairs, all scores zero.
	ds, err := dataset.New("two", [][]float64{{0, 1}, {0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := mustScores(t, l, ds.FullView())
	if scores[0] != 0 || scores[1] != 0 {
		t.Errorf("degenerate scores = %v", scores)
	}
	// All duplicates: finite scores.
	dup, err := dataset.New("dup", [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mustScores(t, l, dup.FullView()) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite score %v", s)
		}
	}
}

// TestKNNDetectorsClampOversizedK: every neighbourhood-based detector must
// clamp k ≥ n to n−1 rather than index out of bounds. An absurd k still
// produces a full, finite score vector. Only kNN-dist additionally keeps
// the planted outlier on top: with the complete neighbourhood the farthest
// point stays farthest, while LOF's and FastABOD's local statistics
// legitimately flatten when every point shares the same neighbour set.
func TestKNNDetectorsClampOversizedK(t *testing.T) {
	ds := clusterWithOutlier(t, 10, 8, 21)
	for _, d := range []core.Detector{NewLOF(999), NewFastABOD(999), NewKNNDist(999)} {
		scores := mustScores(t, d, ds.FullView())
		if len(scores) != ds.N() {
			t.Fatalf("%s with k=999: %d scores for %d points", d.Name(), len(scores), ds.N())
		}
		top, topScore := 0, math.Inf(-1)
		for i, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("%s with k=999: non-finite score %v at %d", d.Name(), s, i)
			}
			if s > topScore {
				top, topScore = i, s
			}
		}
		if d.Name() == "kNN-dist" && top != ds.N()-1 {
			t.Errorf("%s with clamped k ranks point %d over the planted outlier", d.Name(), top)
		}
	}
}

func TestIsolationForestFindsOutlier(t *testing.T) {
	ds := clusterWithOutlier(t, 256, 30, 5)
	f := &IsolationForest{Trees: 50, Subsample: 64, Repetitions: 2, Seed: 7}
	scores := mustScores(t, f, ds.FullView())
	outlier := ds.N() - 1
	if got := argMax(scores); got != outlier {
		t.Fatalf("iForest top point = %d, want %d", got, outlier)
	}
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("score[%d] = %v outside [0,1]", i, s)
		}
	}
	if scores[outlier] < 0.6 {
		t.Errorf("outlier score %v, want close to 1", scores[outlier])
	}
}

func TestIsolationForestDeterminism(t *testing.T) {
	ds := clusterWithOutlier(t, 100, 10, 6)
	f := &IsolationForest{Trees: 20, Subsample: 32, Repetitions: 2, Seed: 9}
	a := mustScores(t, f, ds.FullView())
	b := mustScores(t, f, ds.FullView())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic score at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different subspace gets a different stream but stays deterministic.
	v := ds.View(subspace.New(0))
	c := mustScores(t, f, v)
	d := mustScores(t, f, v)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("nondeterministic subspace score at %d", i)
		}
	}
}

func TestIsolationForestRepetitionAveragingReducesVariance(t *testing.T) {
	ds := clusterWithOutlier(t, 200, 15, 8)
	single := &IsolationForest{Trees: 10, Subsample: 64, Repetitions: 1}
	averaged := &IsolationForest{Trees: 10, Subsample: 64, Repetitions: 10}
	// Variance of one point's score across different seeds.
	varOf := func(f *IsolationForest) float64 {
		var vals []float64
		for seed := int64(0); seed < 12; seed++ {
			f.Seed = seed
			vals = append(vals, mustScores(t, f, ds.FullView())[ds.N()-1])
		}
		var m, m2 float64
		for i, v := range vals {
			d := v - m
			m += d / float64(i+1)
			m2 += d * (v - m)
		}
		return m2 / float64(len(vals)-1)
	}
	vs, va := varOf(single), varOf(averaged)
	if va >= vs {
		t.Errorf("averaging did not reduce variance: single %v vs averaged %v", vs, va)
	}
}

func TestIsolationForestConstantData(t *testing.T) {
	cols := [][]float64{{3, 3, 3, 3, 3, 3, 3, 3}}
	ds, err := dataset.New("const", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &IsolationForest{Trees: 10, Subsample: 8, Repetitions: 1}
	for _, s := range mustScores(t, f, ds.FullView()) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite score %v on constant data", s)
		}
	}
}

func TestAveragePathLength(t *testing.T) {
	if c := averagePathLength(1); c != 0 {
		t.Errorf("c(1) = %v", c)
	}
	if c := averagePathLength(2); c != 1 {
		t.Errorf("c(2) = %v", c)
	}
	// c(256) ≈ 10.24 (reference value from the iForest paper's formula).
	if c := averagePathLength(256); math.Abs(c-10.244) > 0.02 {
		t.Errorf("c(256) = %v, want ≈ 10.24", c)
	}
	// Monotone in n.
	prev := 0.0
	for n := 2.0; n < 1000; n *= 2 {
		c := averagePathLength(n)
		if c <= prev {
			t.Errorf("c(%v) = %v not increasing", n, c)
		}
		prev = c
	}
}

func TestCachedDetector(t *testing.T) {
	ds := clusterWithOutlier(t, 50, 10, 11)
	c := NewCached(NewLOF(5))
	if c.Name() != "LOF" {
		t.Errorf("name = %q", c.Name())
	}
	v := ds.View(subspace.New(0, 1))
	a := mustScores(t, c, v)
	b := mustScores(t, c, ds.View(subspace.New(0, 1)))
	st := c.CacheStats()
	if st.Calls != 2 || st.Hits != 1 {
		t.Errorf("calls=%d hits=%d", st.Calls, st.Hits)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cached scores differ")
		}
	}
	// Different subspace → different cache entry.
	mustScores(t, c, ds.View(subspace.New(0)))
	st = c.CacheStats()
	if st.Calls != 3 || st.Hits != 1 {
		t.Errorf("after new subspace: calls=%d hits=%d", st.Calls, st.Hits)
	}
}

// TestCachedWarmHitAllocs pins the warm memo hit to one allocation: the
// (dataset, subspace) key string. The dataset's source key is built once,
// and the subspace key is appended into the same buffer.
func TestCachedWarmHitAllocs(t *testing.T) {
	ds := clusterWithOutlier(t, 50, 10, 11)
	c := NewCached(NewLOF(5))
	v := ds.View(subspace.New(0, 1))
	ctx := context.Background()
	if _, _, _, err := c.ScoresWithStats(ctx, v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := c.ScoresWithStats(ctx, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm ScoresWithStats hit: %v allocs, want 1", allocs)
	}
}

func TestDetectorsImplementInterface(t *testing.T) {
	var _ core.Detector = NewLOF(15)
	var _ core.Detector = NewFastABOD(10)
	var _ core.Detector = NewIsolationForest(1)
	var _ core.Detector = NewCached(NewLOF(15))
	for _, d := range []core.Detector{NewLOF(0), NewFastABOD(0), NewIsolationForest(0)} {
		if d.Name() == "" {
			t.Error("empty detector name")
		}
	}
}

func TestPropertyScoresAreFinite(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(123))
	f := func(nRaw, dRaw uint8, seed int64) bool {
		n := int(nRaw%40) + 3
		d := int(dRaw%4) + 1
		cols := make([][]float64, d)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := range cols[f] {
				// Coarse values provoke duplicates.
				cols[f][i] = float64(rng.Intn(4))
			}
		}
		ds, err := dataset.New("prop", cols, nil)
		if err != nil {
			return false
		}
		dets := []core.Detector{
			NewLOF(5),
			NewFastABOD(5),
			&IsolationForest{Trees: 5, Subsample: 16, Repetitions: 1, Seed: seed},
		}
		for _, det := range dets {
			scores, err := det.Scores(ctx, ds.FullView())
			if err != nil {
				return false
			}
			for _, s := range scores {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
