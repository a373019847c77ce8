package neighbors

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestInsertNeighborProperty pins the one insert every k-nearest list is
// built by: whatever order candidates arrive in, the list equals the first
// min(capacity, n) entries of a full sort by (d2, id), and listRadius
// reads +Inf until the list is full and the last entry's d2 after that.
// Candidate sets are tie-heavy — distances on coarse lattices, exact
// duplicates, zeros and the +Inf of an overflowed sum — and their ids are
// scattered, so only the id tie-break can settle most boundaries.
// Capacities cover k = 1, the detectors' 10 and 15, and 15 plus the
// default window slack; set sizes run from below the smallest capacity to
// above the largest.
func TestInsertNeighborProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	capacities := []int{1, 10, 15, 15 + DefaultWindowSlack}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		ids := rng.Perm(4 * n)
		cands := make([]neighbor, n)
		for j := range cands {
			var d2 float64
			switch rng.Intn(5) {
			case 0:
				d2 = float64(rng.Intn(3))
			case 1:
				d2 = float64(rng.Intn(8)) * 0.125
			case 2:
				d2 = cands[rng.Intn(j+1)].d2 // duplicate an earlier distance (or 0)
			case 3:
				d2 = rng.Float64()
			default:
				if rng.Intn(8) == 0 {
					d2 = math.Inf(1)
				}
			}
			cands[j] = neighbor{d2: d2, id: int32(ids[j])}
		}
		sorted := append([]neighbor(nil), cands...)
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].d2 != sorted[b].d2 {
				return sorted[a].d2 < sorted[b].d2
			}
			return sorted[a].id < sorted[b].id
		})
		for _, capacity := range capacities {
			want := sorted[:min(capacity, n)]
			for perm := 0; perm < 4; perm++ {
				list := emptyList(nil, capacity)
				for step, p := range rng.Perm(n) {
					list = insertNeighbor(list, cands[p].d2, cands[p].id, capacity)
					radius := listRadius(list, capacity)
					if got := len(list); got != min(step+1, capacity) {
						t.Fatalf("trial %d cap %d: %d entries after %d inserts", trial, capacity, got, step+1)
					}
					wantRadius := math.Inf(1)
					if len(list) == capacity {
						wantRadius = list[len(list)-1].d2
					}
					if math.Float64bits(radius) != math.Float64bits(wantRadius) {
						t.Fatalf("trial %d cap %d: radius %v with %d entries, want %v", trial, capacity, radius, len(list), wantRadius)
					}
				}
				for r := range want {
					if list[r] != want[r] {
						t.Fatalf("trial %d cap %d n %d: list %v, want the sorted prefix %v", trial, capacity, n, list, want)
					}
				}
			}
		}
	}
}
