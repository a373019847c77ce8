package neighbors

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// keyedView is a benchView under its own source key, so one plane can
// hold several sources.
type keyedView struct {
	benchView
	key string
}

func (v keyedView) SourceKey() string { return v.key }
func (v keyedView) CacheKey() string  { return v.key + "|" + fmt.Sprint(v.feats) }

// sourceViews returns a fresh 300 × 20 gaussian source's three shapes that
// read the source cache: a 2d view (the delta sweep, a sort order), a 3d
// view (the delta scan, seeded) and a 14d view (the coded brute-force
// scan, seeded from the same full-space kNN).
func sourceViews(key string, seed int64) []ColumnSource {
	cols := seedSource(randomRows(rand.New(rand.NewSource(seed)), 300, 20))
	return []ColumnSource{
		keyedView{benchView{cols, []int{3, 11}}, key},
		keyedView{benchView{cols, []int{0, 5, 9}}, key},
		keyedView{benchView{cols, []int{0, 1, 2, 4, 6, 7, 8, 10, 12, 13, 15, 16, 18, 19}}, key},
	}
}

// checkSourcePaths asserts the plane answered the views of sourceViews
// through the paths they are built for: one sweep, one seeded delta scan
// and one seeded coded index per source.
func checkSourcePaths(t *testing.T, p *Plane, sources int) {
	t.Helper()
	st := p.Stats()
	if st.Delta.SweepQueries != sources || st.Delta.FullSeeded != sources || st.Prune.Indexes != sources {
		t.Fatalf("paths %+v, prune %+v: want %d sweeps, seeded scans and coded indexes", st.Delta, st.Prune, sources)
	}
}

// TestPlaneForgetDropsSourceEntries pins Forget's reach into the source
// cache: after Plane.Forget(a), none of source a's sort orders or seeds
// stay resident while source b's do, and querying a again rebuilds them
// into the same bits.
func TestPlaneForgetDropsSourceEntries(t *testing.T) {
	p := NewPlane(0)
	a, b := sourceViews("a", 1), sourceViews("b", 2)
	for _, v := range append(a, b...) {
		checkPlaneEqualsPlain(t, p, v, 15, 2)
	}
	checkSourcePaths(t, p, 2)
	// Per source: the sweep column's sort order and the k = 15 seeds.
	if st := p.sources.Stats(); st.Entries != 4 || st.Computations != 4 {
		t.Fatalf("source cache %+v, want 4 entries from 4 builds", st)
	}

	p.Forget("a")
	if st := p.sources.Stats(); st.Entries != 2 || st.Forgets != 2 {
		t.Fatalf("after Forget(a): source cache %+v, want b's 2 entries left", st)
	}
	if st := p.Stats(); st.Entries != len(b) {
		t.Fatalf("after Forget(a): %d view entries, want b's %d", st.Entries, len(b))
	}

	for _, v := range a {
		checkPlaneEqualsPlain(t, p, v, 15, 2)
	}
	// a's views were recomputed, through the same paths.
	checkSourcePaths(t, p, 3)
	if st := p.sources.Stats(); st.Entries != 4 || st.Computations != 6 {
		t.Fatalf("after requerying a: source cache %+v, want 4 entries from 6 builds", st)
	}
}

// TestPlaneSeedBuildSingleflight races eight goroutines querying distinct
// 3d views of a fresh source: every one needs the full-space seeds, which
// must be built exactly once (3d views need no sort order), and every
// answer must equal the plain scan.
func TestPlaneSeedBuildSingleflight(t *testing.T) {
	cols := seedSource(randomRows(rand.New(rand.NewSource(4)), 300, 10))
	views := make([]benchView, 8)
	for g := range views {
		views[g] = benchView{cols, []int{g, g + 1, g + 2}}
	}
	p := NewPlane(0)
	start := make(chan struct{})
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for g, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _, _, _, _, errs[g] = p.AllKNN(context.Background(), v, 15, 2)
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("view %v: %v", views[g].feats, err)
		}
	}
	if st := p.sources.Stats(); st.Computations != 1 {
		t.Fatalf("source cache %+v: seeds built %d times, want once", st, st.Computations)
	}
	if st := p.Stats().Delta; st.FullSeeded != len(views) {
		t.Fatalf("delta stats %+v, want %d seeded scans", st, len(views))
	}
	for _, v := range views {
		checkPlaneEqualsPlain(t, p, v, 15, 1)
	}
}

// TestPlaneSourceCacheNoBudget runs the three shapes that read the source
// cache through a one-byte plane: nothing can stay resident, every sort
// order and seed set is rebuilt on each use, and each answer still equals
// the plain scan bit for bit.
func TestPlaneSourceCacheNoBudget(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPlane(1)
		for _, v := range sourceViews("tiny", 3) {
			checkPlaneEqualsPlain(t, p, v, 15, workers)
		}
		checkSourcePaths(t, p, 1)
		// The sweep's sort order, then the seeds twice: once for the
		// delta scan, once for the coded index.
		if st := p.sources.Stats(); st.Entries != 0 || st.Computations != 3 {
			t.Fatalf("workers=%d: source cache %+v, want 3 builds and nothing resident", workers, st)
		}
	}
}

// randomRows draws n gaussian rows of d features.
func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}
