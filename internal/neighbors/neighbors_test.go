package neighbors

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// knnOf answers one query through a fresh scratch, so the returned slices
// are the caller's to keep.
func knnOf(ix Index, i, k int) ([]int, []float64) {
	return ix.KNNInto(i, k, new(Scratch))
}

func gridPoints() [][]float64 {
	// 0:(0,0) 1:(1,0) 2:(0,1) 3:(10,10) 4:(1,1)
	return [][]float64{{0, 0}, {1, 0}, {0, 1}, {10, 10}, {1, 1}}
}

func TestBruteForceKNN(t *testing.T) {
	ix := NewBruteForce(gridPoints())
	idx, dist := knnOf(ix, 0, 2)
	if len(idx) != 2 {
		t.Fatalf("got %d neighbours", len(idx))
	}
	// Nearest of (0,0): (1,0) and (0,1), both at distance 1; ties break
	// on index.
	if idx[0] != 1 || idx[1] != 2 {
		t.Errorf("idx = %v", idx)
	}
	if dist[0] != 1 || dist[1] != 1 {
		t.Errorf("dist = %v", dist)
	}
	// Self is excluded.
	for _, j := range idx {
		if j == 0 {
			t.Error("self returned as neighbour")
		}
	}
}

func TestKNNFewerPointsThanK(t *testing.T) {
	ix := NewBruteForce([][]float64{{0}, {1}, {2}})
	idx, _ := knnOf(ix, 0, 10)
	if len(idx) != 2 {
		t.Errorf("want all 2 others, got %v", idx)
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	knnOf(NewBruteForce(gridPoints()), 0, 0)
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{5, 64, 257} {
		for _, d := range []int{1, 2, 3, 5} {
			points := make([][]float64, n)
			for i := range points {
				p := make([]float64, d)
				for j := range p {
					p[j] = rng.NormFloat64()
				}
				points[i] = p
			}
			tree := NewKDTree(points)
			brute := NewBruteForce(points)
			for _, k := range []int{1, 3, 7} {
				if k >= n {
					continue
				}
				for trial := 0; trial < 10; trial++ {
					q := rng.Intn(n)
					ti, td := knnOf(tree, q, k)
					bi, bd := knnOf(brute, q, k)
					for m := range bi {
						if ti[m] != bi[m] {
							t.Fatalf("n=%d d=%d k=%d q=%d: tree %v vs brute %v", n, d, k, q, ti, bi)
						}
						if math.Abs(td[m]-bd[m]) > 1e-12 {
							t.Fatalf("distance mismatch: %v vs %v", td, bd)
						}
					}
				}
			}
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tree := NewKDTree(points)
	idx, dist := knnOf(tree, 0, 2)
	if len(idx) != 2 {
		t.Fatalf("got %v", idx)
	}
	if dist[0] != 0 || dist[1] != 0 {
		t.Errorf("duplicate distances = %v", dist)
	}
	for _, j := range idx {
		if j == 0 {
			t.Error("self returned")
		}
	}
}

func TestKDTreeEmptyAndDepth(t *testing.T) {
	tree := NewKDTree(nil)
	if tree.Len() != 0 || tree.Depth() != 0 {
		t.Error("empty tree should have zero len/depth")
	}
	if idx, _ := knnOf(tree, 0, 1); idx != nil {
		t.Error("empty tree KNN should be nil")
	}
	rng := rand.New(rand.NewSource(9))
	points := make([][]float64, 1024)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	big := NewKDTree(points)
	// Balanced tree over 1024 points with 16-point leaves: depth ≈ 7±slack.
	if d := big.Depth(); d > 12 {
		t.Errorf("tree depth %d suggests unbalanced splits", d)
	}
}

func TestNewIndexSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lowDim := make([][]float64, 200)
	for i := range lowDim {
		lowDim[i] = []float64{rng.Float64(), rng.Float64()}
	}
	if _, ok := NewIndex(lowDim).(*KDTree); !ok {
		t.Error("low-dimensional large set should use KD-tree")
	}
	highDim := make([][]float64, 200)
	for i := range highDim {
		p := make([]float64, 50)
		for j := range p {
			p[j] = rng.Float64()
		}
		highDim[i] = p
	}
	if _, ok := NewIndex(highDim).(bruteForce); !ok {
		t.Error("high-dimensional set should use brute force")
	}
	small := lowDim[:10]
	if _, ok := NewIndex(small).(bruteForce); !ok {
		t.Error("small set should use brute force")
	}
	if ix := NewIndex(nil); ix.Len() != 0 {
		t.Error("empty index should be empty")
	}
}

func TestAllKNN(t *testing.T) {
	ix := NewBruteForce(gridPoints())
	idx, dist, m, err := AllKNNFlat(context.Background(), ix, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 || len(idx) != 5*m || len(dist) != 5*m {
		t.Fatalf("AllKNNFlat shapes m=%d %d/%d", m, len(idx), len(dist))
	}
	for i := 0; i < 5; i++ {
		row := dist[i*m : (i+1)*m]
		if !sort.Float64sAreSorted(row) {
			t.Errorf("point %d distances unsorted: %v", i, row)
		}
		wi, wd := knnOf(ix, i, 2)
		for j, p := range idx[i*m : (i+1)*m] {
			if int(p) != wi[j] || row[j] != wd[j] {
				t.Errorf("point %d slot %d: (%d, %v), per-point query (%d, %v)", i, j, p, row[j], wi[j], wd[j])
			}
		}
	}
}

func TestSquaredEuclidean(t *testing.T) {
	if d := SquaredEuclidean([]float64{0, 0}, []float64{3, 4}); d != 25 {
		t.Errorf("d² = %v", d)
	}
	if d := SquaredEuclidean(nil, nil); d != 0 {
		t.Errorf("empty d² = %v", d)
	}
}

func TestPropertyKDTreeEqualsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(nRaw, dRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 2
		d := int(dRaw%4) + 1
		k := int(kRaw%5) + 1
		if k >= n {
			k = n - 1
		}
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, d)
			for j := range p {
				// Coarse grid provokes duplicates and ties.
				p[j] = float64(rng.Intn(6))
			}
			points[i] = p
		}
		tree := NewKDTree(points)
		brute := NewBruteForce(points)
		q := rng.Intn(n)
		ti, td := knnOf(tree, q, k)
		bi, bd := knnOf(brute, q, k)
		if len(ti) != len(bi) {
			return false
		}
		for m := range bi {
			// With ties the index sets can legitimately differ only if
			// distances differ — require identical distance multisets
			// and identical index order (both use the same tie-break).
			if ti[m] != bi[m] || math.Abs(td[m]-bd[m]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
