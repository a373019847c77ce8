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
// predicate, and Forget drops exactly its prefix. Residency is probed
// through Get with a compute that counts its runs: a resident key answers
// without running it.
func TestPutPeekForget(t *testing.T) {
	c := newDepthCache(1 << 20)
	ctx := context.Background()
	c.Put("ds1|a", depth{9}, atLeast(5))
	c.Put("ds1|a", depth{5}, atLeast(5)) // resident 9 already serves 5
	c.Put("ds1|b", depth{3}, nil)
	c.Put("ds2|a", depth{3}, nil)
	runs := 0
	if v, err := c.Get(ctx, "ds1|a", nil, computeAt(1, &runs)); err != nil || runs != 0 || v.k != 9 {
		t.Fatalf("Get = %v, %v after %d runs; want the deeper resident value", v, err, runs)
	}
	c.Forget("ds1|")
	st := c.Stats()
	if st.Calls != 1 || st.Hits != 1 || st.Forgets != 2 || st.Entries != 1 || st.Bytes != Charge("ds2|a", 100) {
		t.Fatalf("stats %+v", st)
	}
	if v, _ := c.Get(ctx, "ds2|a", nil, computeAt(1, &runs)); runs != 0 || v.k != 3 {
		t.Fatalf("Forget dropped a key outside its prefix: got %v after %d runs", v, runs)
	}
	if v, _ := c.Get(ctx, "ds1|b", nil, computeAt(1, &runs)); runs != 1 || v.k != 1 {
		t.Fatalf("Forget kept a key inside its prefix: got %v after %d runs", v, runs)
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
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v", st)
	}
	// The survivors answer without computing; k1, the LRU victim, does not.
	before := runs
	for _, key := range []string{"k0", "k2"} {
		if _, err := c.Get(ctx, key, nil, computeAt(1, &runs)); err != nil || runs != before {
			t.Fatalf("%s: resident entry recomputed (runs %d → %d, err %v)", key, before, runs, err)
		}
	}
	if _, err := c.Get(ctx, "k1", nil, computeAt(1, &runs)); err != nil || runs != before+1 {
		t.Fatalf("least recently used entry survived (runs %d → %d, err %v)", before, runs, err)
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
