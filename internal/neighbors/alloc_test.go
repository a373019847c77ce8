package neighbors_test

import (
	"context"
	"math/rand"
	"testing"

	"anex/internal/neighbors"
)

func allocPoints(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for f := range pts[i] {
			pts[i][f] = rng.NormFloat64()
		}
	}
	return pts
}

// TestAllKNNAllocs pins the O(1)-allocation contract of the serial
// neighbourhood builder: the whole n×m structure costs a constant number
// of allocations — the flat result arrays, one scratch slice, and the
// scratch's internal buffers — NOT O(n) per-row slices. The count is
// asserted both in absolute terms (a regression to per-row allocation
// would be ≥ n) and to be independent of n.
func TestAllKNNAllocs(t *testing.T) {
	const k = 10
	var counts [2]float64
	for trial, n := range []int{128, 512} {
		ix := neighbors.NewIndex(allocPoints(n, 3, int64(n)))
		got := testing.AllocsPerRun(10, func() {
			if _, _, _, err := neighbors.AllKNNFlat(context.Background(), ix, k, 1); err != nil {
				t.Fatal(err)
			}
		})
		if got >= float64(n) {
			t.Errorf("AllKNNFlat at n=%d: %v allocs/op — per-row allocation is back", n, got)
		}
		if got > 16 {
			t.Errorf("AllKNNFlat at n=%d: %v allocs/op, want ≤ 16", n, got)
		}
		counts[trial] = got
	}
	if counts[0] != counts[1] {
		t.Errorf("AllKNNFlat allocations scale with n: %v at n=128 vs %v at n=512", counts[0], counts[1])
	}
}
