package neighbors_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"anex/internal/dataset"
	"anex/internal/failpoint"
	"anex/internal/neighbors"
	"anex/internal/subspace"
)

// tieDataset builds a dataset over a small integer lattice: coordinates are
// drawn from {0,…,3}, so tied distances are everywhere, and the first
// `dupes` rows are exact copies of the row after them — the adversarial
// inputs for any ordering property.
func tieDataset(t *testing.T, name string, n, d, dupes int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = float64(rng.Intn(4))
		}
	}
	for i := 0; i < dupes && i+dupes < n; i++ {
		for f := range cols {
			cols[f][i] = cols[f][i+dupes]
		}
	}
	ds, err := dataset.New(name, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkPrefix requires the plane's answer at k to be, bit for bit, the
// first min(k, n−1) entries of each row of the direct computation at k.
func checkPrefix(t *testing.T, p *neighbors.Plane, v *dataset.View, k int) {
	t.Helper()
	checkPlaneMatches(t, p, v, k, 1)
}

// checkPlaneMatches is checkPrefix with the plane computing (on a miss) at
// the given worker count.
func checkPlaneMatches(t *testing.T, p *neighbors.Plane, v *dataset.View, k, workers int) {
	t.Helper()
	gotIdx, gotDist, m, stride, ok, err := p.AllKNN(context.Background(), v, k, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("plane declined view %s at k=%d", v.Subspace().Key(), k)
	}
	wantIdx, wantDist, wantM := referenceKNN(t, v, k)
	if m != wantM {
		t.Fatalf("view %s k=%d: m=%d, want %d", v.Subspace().Key(), k, m, wantM)
	}
	for i := 0; i < v.N(); i++ {
		for j := 0; j < m; j++ {
			g, w := gotIdx[i*stride+j], wantIdx[i*m+j]
			if g != w {
				t.Fatalf("view %s k=%d point %d slot %d: idx=%d, want %d",
					v.Subspace().Key(), k, i, j, g, w)
			}
			gd, wd := gotDist[i*stride+j], wantDist[i*m+j]
			if math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("view %s k=%d point %d slot %d: dist bits %x, want %x",
					v.Subspace().Key(), k, i, j, math.Float64bits(gd), math.Float64bits(wd))
			}
		}
	}
}

// TestPlanePrefixSlicingProperty pins the contract the whole plane rests
// on: AllKNN(view, k) equals the first k entries of AllKNN(view, kmax) for
// every k ≤ kmax — including duplicate rows and massively tied distances —
// on both compute paths (the delta engine's sweep/scan answers for
// low-dimensional views, and the standard-index fallback for wide ones),
// with the plane computing at 1 and at 4 workers. The property holds because every path orders the kept set by the total
// order (distance bit pattern, index), making the k-list a strict prefix
// of the kmax-list.
func TestPlanePrefixSlicingProperty(t *testing.T) {
	const kmax = 15
	low := tieDataset(t, "prefix-low", 200, 6, 20, 1) // delta-eligible views
	wide := tieDataset(t, "prefix-wide", 150, 12, 15, 2)
	wideSub := subspace.New()
	for f := 0; f < 9; f++ { // 9d > the delta gate → fallback path
		wideSub = wideSub.With(f)
	}
	views := []*dataset.View{
		low.View(subspace.New(0)),          // 1d full-seeded scan
		low.View(subspace.New(0, 1)),       // 2d sweep path
		low.View(subspace.New(0, 1, 2, 3)), // full-seeded scan
		wide.View(wideSub),                 // standard-index fallback
		wide.FullView(),                    // 12d full space, fallback
	}
	for _, v := range views {
		for _, workers := range []int{1, 4} {
			p := neighbors.NewPlane(0)
			p.RegisterK(kmax)
			// Descending k first: the kmax entry must already serve them all.
			for k := kmax; k >= 1; k-- {
				checkPlaneMatches(t, p, v, k, workers)
			}
			st := p.Stats()
			if st.Computations != 1 {
				t.Errorf("view %s workers=%d: %d computations serving k=1..%d, want 1", v.Subspace().Key(), workers, st.Computations, kmax)
			}
			if st.Queries != kmax || st.Hits != kmax-1 {
				t.Errorf("view %s workers=%d: queries=%d hits=%d, want %d/%d", v.Subspace().Key(), workers, st.Queries, st.Hits, kmax, kmax-1)
			}
		}
	}
}

// TestPlaneSingleflight: concurrent first queries of one key elect a single
// leader; everyone gets the same arrays and exactly one computation runs.
func TestPlaneSingleflight(t *testing.T) {
	ds := tieDataset(t, "flight", 200, 5, 0, 3)
	v := ds.View(subspace.New(0, 1, 2))
	p := neighbors.NewPlane(0)
	p.RegisterK(15)
	const callers = 8
	dists := make([][]float64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, d, _, _, ok, err := p.AllKNN(context.Background(), v, 10, 1)
			if err != nil || !ok {
				t.Errorf("caller %d: ok=%v err=%v", c, ok, err)
				return
			}
			dists[c] = d
		}(c)
	}
	wg.Wait()
	st := p.Stats()
	if st.Computations != 1 {
		t.Fatalf("%d computations for %d concurrent callers, want 1", st.Computations, callers)
	}
	if st.Queries != callers || st.Hits != callers-1 {
		t.Fatalf("queries=%d hits=%d, want %d/%d", st.Queries, st.Hits, callers, callers-1)
	}
	for c := 1; c < callers; c++ {
		if &dists[c][0] != &dists[0][0] {
			t.Fatalf("caller %d received a private copy, want the shared entry", c)
		}
	}
	if f := st.DedupFactor(); f != float64(callers) {
		t.Fatalf("dedup factor %v, want %v", f, float64(callers))
	}
}

// TestPlaneEviction: a byte budget below two resident entries keeps the
// plane at one entry, counts the eviction, and recomputes evicted keys on
// return — with the byte accounting staying within budget throughout.
func TestPlaneEviction(t *testing.T) {
	ds := tieDataset(t, "evict", 128, 6, 0, 4)
	vA, vB := ds.View(subspace.New(0, 1)), ds.View(subspace.New(2, 3))
	// One entry at n=128, kmax=10 costs 128·10·12 B + overhead ≈ 16 KB.
	p := neighbors.NewPlane(20 << 10)
	p.RegisterK(10)
	ctx := context.Background()
	if _, _, _, _, _, err := p.AllKNN(ctx, vA, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, err := p.AllKNN(ctx, vB, 10, 1); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a one-entry budget: %+v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("%d resident entries, want 1", st.Entries)
	}
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("resident %d B exceeds budget %d B", st.ResidentBytes, st.MaxBytes)
	}
	// vA was evicted to admit vB: touching it again must recompute.
	if _, _, _, _, _, err := p.AllKNN(ctx, vA, 10, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Computations; got != 3 {
		t.Fatalf("%d computations, want 3 (A, B, A-again)", got)
	}
}

// TestPlaneUpgrade: an entry computed before a deeper consumer registered
// is transparently rebuilt at the new kmax on next access, and the deeper
// answer is correct.
func TestPlaneUpgrade(t *testing.T) {
	ds := tieDataset(t, "upgrade", 150, 5, 10, 5)
	v := ds.View(subspace.New(0, 1, 2))
	p := neighbors.NewPlane(0)
	ctx := context.Background()
	if _, _, _, _, _, err := p.AllKNN(ctx, v, 5, 1); err != nil { // kmax=5 entry
		t.Fatal(err)
	}
	checkPrefix(t, p, v, 12) // registers 12, must rebuild and serve it
	st := p.Stats()
	if st.Upgrades != 1 {
		t.Fatalf("upgrades=%d, want 1", st.Upgrades)
	}
	if st.Computations != 2 {
		t.Fatalf("computations=%d, want 2 (k=5 build, k=12 rebuild)", st.Computations)
	}
	if st.KMax != 12 {
		t.Fatalf("kmax=%d, want 12", st.KMax)
	}
	checkPrefix(t, p, v, 5) // still a prefix of the upgraded entry
}

// TestPlaneDisabled: a nil plane and degenerate queries decline (ok=false)
// without error, sending callers to their private fallback path.
func TestPlaneDisabled(t *testing.T) {
	ds := tieDataset(t, "disabled", 64, 3, 0, 6)
	v := ds.FullView()
	var nilPlane *neighbors.Plane
	if _, _, _, _, ok, err := nilPlane.AllKNN(context.Background(), v, 5, 1); ok || err != nil {
		t.Fatalf("nil plane: ok=%v err=%v, want declined", ok, err)
	}
	nilPlane.RegisterK(5) // must not panic
	if st := nilPlane.Stats(); st.Queries != 0 {
		t.Fatalf("nil plane stats: %+v", st)
	}
	p := neighbors.NewPlane(0)
	if _, _, _, _, ok, _ := p.AllKNN(context.Background(), v, 0, 1); ok {
		t.Fatal("k=0 accepted")
	}
}

// TestPlaneBudgetSmallerThanEntry pins the hard byte budget: a plane whose
// budget is below one entry's charge still answers correctly, but keeps
// nothing resident — neither a computed entry nor a published one.
func TestPlaneBudgetSmallerThanEntry(t *testing.T) {
	ds := tieDataset(t, "tiny-budget", 128, 6, 0, 8)
	v := ds.View(subspace.New(0, 1))
	p := neighbors.NewPlane(1 << 10) // one entry at n=128, k=10 is ~15 KB
	checkPrefix(t, p, v, 10)
	idx, dist, m := referenceKNN(t, v, 10)
	w := ds.View(subspace.New(2, 3))
	p.Publish(w, 10, m, idx, dist)
	st := p.Stats()
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("resident %d B exceeds budget %d B", st.ResidentBytes, st.MaxBytes)
	}
	if st.Entries != 0 || st.Evictions != 2 {
		t.Fatalf("entries=%d evictions=%d, want 0 and 2 (one computed, one published)", st.Entries, st.Evictions)
	}
}

// TestPlaneInFlightUpgrade covers the waiter side of the kmax upgrade: a
// query at k=12 that joins a leader already computing at kmax=5 cannot use
// the leader's entry, so it recomputes at 12 instead of being served short.
func TestPlaneInFlightUpgrade(t *testing.T) {
	t.Parallel()
	ds := tieDataset(t, "inflight-upgrade", 150, 5, 10, 9)
	v := ds.View(subspace.New(0, 1, 2))
	p := neighbors.NewPlane(0)
	// Only the leader's computation carries the delay; the waiter's
	// recompute runs under a context without faults.
	faults, err := failpoint.Parse(neighbors.SitePlanePublish + "=delay:300ms")
	if err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() {
		_, _, m, _, _, err := p.AllKNN(failpoint.With(context.Background(), faults), v, 5, 1)
		if err == nil && m != 5 {
			err = fmt.Errorf("leader m=%d, want 5", m)
		}
		leader <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for faults.Hits(neighbors.SitePlanePublish) == 0 { // leader is computing at kmax=5
		if time.Now().After(deadline) {
			t.Fatal("leader never started computing")
		}
		time.Sleep(time.Millisecond)
	}
	checkPrefix(t, p, v, 12) // registers 12 and joins the in-flight k=5 leader
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Computations != 2 {
		t.Fatalf("computations=%d, want 2 (k=5 leader, k=12 waiter recompute)", st.Computations)
	}
	checkPrefix(t, p, v, 5) // a prefix of the k=12 entry now resident
	if got := p.Stats().Computations; got != 2 {
		t.Fatalf("computations=%d after the k=5 re-query, want 2", got)
	}
}

// TestPlaneWideViewCodedBrute pins the plane's wide-view tier: a 20d view
// of only 100 rows is answered by the coded brute-force index — the plane
// folds its prefilter ledger into Prune — and bit-identically to the plain
// brute-force scan.
func TestPlaneWideViewCodedBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := make([][]float64, 20)
	for f := range cols {
		cols[f] = make([]float64, 100)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	ds, err := dataset.New("wide-100", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.FullView()
	const k = 15
	p := neighbors.NewPlane(0)
	gotIdx, gotDist, m, stride, _, err := p.AllKNN(context.Background(), v, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats().Prune; st.Indexes != 1 || st.QuantCandidates == 0 || st.QuantRejected == 0 {
		t.Fatalf("wide view did not go through the coded brute-force index: %+v", st)
	}
	wantIdx, wantDist, wantM, err := neighbors.AllKNNFlat(context.Background(), neighbors.NewBruteForce(v.Points()), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != wantM {
		t.Fatalf("m=%d, want %d", m, wantM)
	}
	for i := 0; i < v.N(); i++ {
		for j := 0; j < m; j++ {
			g, w := gotIdx[i*stride+j], wantIdx[i*m+j]
			gd, wd := gotDist[i*stride+j], wantDist[i*m+j]
			if g != w || math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("point %d slot %d: (%d, %x), want (%d, %x)",
					i, j, g, math.Float64bits(gd), w, math.Float64bits(wd))
			}
		}
	}
}
