package detector

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"anex/internal/dataset"
	"anex/internal/memo"
	"anex/internal/subspace"
)

// countingDetector records how many times the inner computation ran per
// subspace key — the probe for eviction/refetch and singleflight behaviour.
type countingDetector struct {
	mu     sync.Mutex
	counts map[string]int
}

func newCountingDetector() *countingDetector {
	return &countingDetector{counts: make(map[string]int)}
}

func (d *countingDetector) Name() string { return "counting" }

func (d *countingDetector) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	d.mu.Lock()
	d.counts[v.Subspace().Key()]++
	d.mu.Unlock()
	scores := make([]float64, v.N())
	for i := range scores {
		scores[i] = float64(i)
	}
	return scores, nil
}

func (d *countingDetector) count(key string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counts[key]
}

func (d *countingDetector) total() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.counts {
		n += c
	}
	return n
}

// lruTestbed builds a small multi-feature dataset plus a budget that fits
// exactly `fit` memo entries for that dataset's single-feature views.
func lruTestbed(t *testing.T, fit int) (*dataset.Dataset, int64) {
	t.Helper()
	cols := make([][]float64, 8)
	for f := range cols {
		cols[f] = make([]float64, 50)
		for i := range cols[f] {
			cols[f][i] = float64(f*100 + i)
		}
	}
	ds, err := dataset.New("lru-test", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	one := memo.Charge(ds.Name()+"|"+subspace.New(0).Key(), int64(ds.N())*8)
	return ds, int64(fit) * one
}

func mustScore(t *testing.T, c *Cached, ds *dataset.Dataset, features ...int) {
	t.Helper()
	if _, err := c.Scores(context.Background(), ds.View(subspace.New(features...))); err != nil {
		t.Fatal(err)
	}
}

// TestCachedLRUEviction fills a two-entry budget with three keys and checks
// the cold end is evicted, the budget holds, and an evicted key recomputes
// on refetch.
func TestCachedLRUEviction(t *testing.T) {
	ds, budget := lruTestbed(t, 2)
	inner := newCountingDetector()
	c := NewCachedBudget(inner, budget)

	mustScore(t, c, ds, 0)
	mustScore(t, c, ds, 1)
	mustScore(t, c, ds, 2) // evicts "0", the coldest

	st := c.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts: entries=%d evictions=%d, want 2/1", st.Entries, st.Evictions)
	}
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.MaxBytes)
	}

	// "1" and "2" are resident: refetching them is pure hit.
	mustScore(t, c, ds, 1)
	mustScore(t, c, ds, 2)
	if got := inner.total(); got != 3 {
		t.Fatalf("resident refetches recomputed: %d inner calls, want 3", got)
	}
	// "0" was evicted: refetching recomputes exactly once and evicts again.
	mustScore(t, c, ds, 0)
	if got := inner.count("0"); got != 2 {
		t.Fatalf("evicted key recomputed %d times, want 2", got)
	}
	st = c.CacheStats()
	if st.Entries != 2 || st.Evictions != 2 || st.ResidentBytes > st.MaxBytes {
		t.Fatalf("after refetch: %+v", st)
	}
}

// TestCachedLRURecency asserts a cache hit refreshes an entry's position:
// touching the oldest key before an insert redirects eviction to the
// second-oldest.
func TestCachedLRURecency(t *testing.T) {
	ds, budget := lruTestbed(t, 2)
	inner := newCountingDetector()
	c := NewCachedBudget(inner, budget)

	mustScore(t, c, ds, 0)
	mustScore(t, c, ds, 1)
	mustScore(t, c, ds, 0) // hit: "0" becomes most recent
	mustScore(t, c, ds, 2) // evicts "1", not "0"

	mustScore(t, c, ds, 0)
	if got := inner.count("0"); got != 1 {
		t.Fatalf("recently-touched key was evicted: %d inner calls for key 0, want 1", got)
	}
	mustScore(t, c, ds, 1)
	if got := inner.count("1"); got != 2 {
		t.Fatalf("cold key survived eviction: %d inner calls for key 1, want 2", got)
	}
}

// TestCachedOverBudgetEntry inserts a score vector bigger than the whole
// budget: the caller still gets its scores, but nothing stays resident.
func TestCachedOverBudgetEntry(t *testing.T) {
	ds, _ := lruTestbed(t, 2)
	inner := newCountingDetector()
	c := NewCachedBudget(inner, 8) // smaller than any entry

	v := ds.View(subspace.New(0))
	scores, err := c.Scores(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.N() {
		t.Fatalf("got %d scores, want %d", len(scores), ds.N())
	}
	st := c.CacheStats()
	if st.Entries != 0 || st.ResidentBytes != 0 || st.Evictions != 1 {
		t.Fatalf("over-budget entry stayed resident: %+v", st)
	}
}

// TestCachedEvictionSingleflightConcurrent is the eviction × concurrency
// contract: a key evicted under byte pressure and then refetched by many
// goroutines at once is rescored exactly once (singleflight preserved),
// and the stats stay consistent — every call is either a hit or an inner
// computation. Runs under check.sh's -race gate.
func TestCachedEvictionSingleflightConcurrent(t *testing.T) {
	ds, budget := lruTestbed(t, 1) // single-entry budget: every new key evicts
	inner := newCountingDetector()
	c := NewCachedBudget(inner, budget)

	const rounds, goroutines = 5, 16
	for round := 0; round < rounds; round++ {
		for _, f := range []int{0, 1} { // alternate keys so each refetch follows an eviction
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					scores, err := c.Scores(context.Background(), ds.View(subspace.New(f)))
					if err == nil && len(scores) != ds.N() {
						err = fmt.Errorf("got %d scores, want %d", len(scores), ds.N())
					}
					errs[g] = err
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("round %d key %d goroutine %d: %v", round, f, g, err)
				}
			}
			// Each (round, key) burst follows an eviction of that key, so it
			// must trigger exactly one fresh inner computation.
			want := round + 1
			if got := inner.count(subspace.New(f).Key()); got != want {
				t.Fatalf("round %d key %d: %d inner computations, want %d (singleflight broken)", round, f, got, want)
			}
		}
	}

	st := c.CacheStats()
	if st.Calls != rounds*2*goroutines {
		t.Fatalf("calls=%d, want %d", st.Calls, rounds*2*goroutines)
	}
	if st.Calls != st.Hits+inner.total() {
		t.Fatalf("stats inconsistent: calls=%d hits=%d inner=%d", st.Calls, st.Hits, inner.total())
	}
	if st.Entries != 1 || st.ResidentBytes > st.MaxBytes {
		t.Fatalf("budget violated: %+v", st)
	}
	if st.Evictions != rounds*2-1 {
		t.Fatalf("evictions=%d, want %d", st.Evictions, rounds*2-1)
	}
}

// TestCachedBudgetDefault checks NewCachedBudget's zero/negative budget
// falls back to the generous default rather than an empty cache.
func TestCachedBudgetDefault(t *testing.T) {
	for _, b := range []int64{0, -1} {
		c := NewCachedBudget(newCountingDetector(), b)
		if got := c.CacheStats().MaxBytes; got != DefaultCacheBytes {
			t.Fatalf("budget %d: MaxBytes=%d, want default %d", b, got, DefaultCacheBytes)
		}
	}
}
