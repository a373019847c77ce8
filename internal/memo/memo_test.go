package memo

import (
	"context"
	"errors"
	"testing"
)

// depth is a test value: a "neighbourhood" computed at some depth, usable
// by any request no deeper than it (the plane's kmax-upgrade rule).
type depth struct{ k int }

func newDepthCache(maxBytes int64) *Cache[depth] {
	return New(maxBytes, func(depth) int64 { return 100 })
}

func atLeast(k int) func(depth) bool { return func(v depth) bool { return v.k >= k } }

func computeAt(k int, runs *int) func(context.Context) (depth, error) {
	return func(context.Context) (depth, error) {
		*runs++
		return depth{k}, nil
	}
}

// TestGetUsableAndStale: a resident value answers every request it is
// usable for; one it is not usable for is dropped as stale and recomputed.
func TestGetUsableAndStale(t *testing.T) {
	c := newDepthCache(1 << 20)
	ctx := context.Background()
	runs := 0
	for _, k := range []int{5, 3, 5} {
		if v, err := c.Get(ctx, "a", atLeast(k), computeAt(5, &runs)); err != nil || v.k != 5 {
			t.Fatalf("k=%d: got %v, %v", k, v, err)
		}
	}
	if v, _ := c.Get(ctx, "a", atLeast(9), computeAt(9, &runs)); v.k != 9 {
		t.Fatalf("deeper request served %v", v)
	}
	st := c.Stats()
	if runs != 2 || st.Calls != 4 || st.Hits != 2 || st.Computations != 2 || st.Stale != 1 || st.Entries != 1 {
		t.Fatalf("runs=%d stats=%+v", runs, st)
	}
}

// TestPutPeekForget: Put keeps a resident value that already satisfies its
// predicate, Peek counts nothing, and Forget drops exactly its prefix.
func TestPutPeekForget(t *testing.T) {
	c := newDepthCache(1 << 20)
	c.Put("ds1|a", depth{9}, atLeast(5))
	c.Put("ds1|a", depth{5}, atLeast(5)) // resident 9 already serves 5
	c.Put("ds1|b", depth{3}, nil)
	c.Put("ds2|a", depth{3}, nil)
	if v, ok := c.Peek("ds1|a"); !ok || v.k != 9 {
		t.Fatalf("Peek = %v, %v; want the deeper resident value", v, ok)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("Peek found a missing key")
	}
	c.Forget("ds1|")
	st := c.Stats()
	if st.Calls != 0 || st.Hits != 0 || st.Forgets != 2 || st.Entries != 1 || st.Bytes != Charge("ds2|a", 100) {
		t.Fatalf("stats %+v", st)
	}
}

// TestHardBudget: the budget is a hard bound — LRU order decides which
// entry goes, and a value larger than the whole budget is returned but
// never resident.
func TestHardBudget(t *testing.T) {
	c := newDepthCache(2 * Charge("k0", 100))
	ctx := context.Background()
	runs := 0
	for _, key := range []string{"k0", "k1", "k0", "k2"} { // k1 is coldest when k2 arrives
		if _, err := c.Get(ctx, key, nil, computeAt(1, &runs)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("least recently used entry survived")
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v", st)
	}
	tiny := newDepthCache(8)
	if v, err := tiny.Get(ctx, "x", nil, computeAt(4, &runs)); err != nil || v.k != 4 {
		t.Fatalf("over-budget value not returned: %v, %v", v, err)
	}
	if st := tiny.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("over-budget value stayed resident: %+v", st)
	}
}

// TestErrorsNotCached: a failed computation is not memoised.
func TestErrorsNotCached(t *testing.T) {
	c := newDepthCache(1 << 20)
	boom := errors.New("boom")
	_, err := c.Get(context.Background(), "a", nil, func(context.Context) (depth, error) { return depth{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	runs := 0
	if _, err := c.Get(context.Background(), "a", nil, computeAt(1, &runs)); err != nil || runs != 1 {
		t.Fatalf("retry after failure: runs=%d err=%v", runs, err)
	}
	if st := c.Stats(); st.Computations != 1 {
		t.Fatalf("computations=%d, want 1 (failures are not counted)", st.Computations)
	}
}
