package detector

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anex/internal/dataset"
)

// gatedDetector blocks every Scores call on a gate channel and counts how
// many times the inner computation actually ran — the probe for the
// cache's singleflight deduplication.
type gatedDetector struct {
	gate   chan struct{}
	inner  atomic.Int32
	scores []float64
}

func (g *gatedDetector) Name() string { return "gated" }

func (g *gatedDetector) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	g.inner.Add(1)
	<-g.gate
	return g.scores, nil
}

func smallView(t testing.TB, seed int64) *dataset.View {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, 3)
	for f := range cols {
		cols[f] = make([]float64, 50)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	ds, err := dataset.New("concurrency-test", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds.FullView()
}

// TestCachedSingleflight asserts the concurrent-miss contract: N goroutines
// racing on one uncomputed key trigger exactly 1 inner computation, and the
// N−1 waiters count as hits — not as misses that silently duplicate work.
func TestCachedSingleflight(t *testing.T) {
	view := smallView(t, 1)
	inner := &gatedDetector{gate: make(chan struct{}), scores: []float64{1, 2, 3}}
	c := NewCached(inner)

	const n = 16
	results := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Scores(ctx, view)
		}(i)
	}
	// Wait until all n goroutines have entered Scores (each increments the
	// call counter under the cache mutex before computing or waiting), then
	// release the gate so the single leader can finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c.CacheStats().Calls == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for concurrent callers to enter Scores")
		}
		time.Sleep(time.Millisecond)
	}
	close(inner.gate)
	wg.Wait()

	if got := inner.inner.Load(); got != 1 {
		t.Errorf("inner Scores ran %d times for one key, want exactly 1", got)
	}
	st := c.CacheStats()
	if calls, hits := st.Calls, st.Hits; calls != n || hits != n-1 {
		t.Errorf("stats = (%d calls, %d hits), want (%d, %d)", calls, hits, n, n-1)
	}
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d error: %v", i, errs[i])
		}
		if len(r) != 3 || r[0] != 1 || r[1] != 2 || r[2] != 3 {
			t.Fatalf("caller %d got scores %v", i, r)
		}
	}
	// A subsequent call is a plain memo hit.
	if s, err := c.Scores(ctx, view); err != nil || len(s) != 3 {
		t.Errorf("post-flight hit returned %v, %v", s, err)
	}
	if st := c.CacheStats(); st.Calls != n+1 || st.Hits != n {
		t.Errorf("post-flight stats = (%d, %d), want (%d, %d)", st.Calls, st.Hits, n+1, n)
	}
}

// TestCachedConcurrentDistinctKeys checks that singleflight dedup keys per
// subspace: different keys compute independently and concurrently.
func TestCachedConcurrentDistinctKeys(t *testing.T) {
	viewA := smallView(t, 1)
	rng := rand.New(rand.NewSource(2))
	cols := make([][]float64, 3)
	for f := range cols {
		cols[f] = make([]float64, 50)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	dsB, err := dataset.New("concurrency-test-b", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	viewB := dsB.FullView()

	inner := &gatedDetector{gate: make(chan struct{}), scores: []float64{9}}
	c := NewCached(inner)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Scores(ctx, viewA) }()
	go func() { defer wg.Done(); c.Scores(ctx, viewB) }()
	// Both keys must reach the inner detector: two leaders, no cross-key
	// blocking. Only then release them.
	deadline := time.Now().Add(10 * time.Second)
	for inner.inner.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("distinct keys did not compute concurrently")
		}
		time.Sleep(time.Millisecond)
	}
	close(inner.gate)
	wg.Wait()
	if st := c.CacheStats(); st.Calls != 2 || st.Hits != 0 {
		t.Errorf("stats = (%d, %d), want (2, 0)", st.Calls, st.Hits)
	}
}

// panickyDetector blocks on its gate, then panics — the probe for leader
// crash containment.
type panickyDetector struct {
	gate chan struct{}
}

func (p *panickyDetector) Name() string { return "panicky" }

func (p *panickyDetector) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	<-p.gate
	panic("detector crashed")
}

// TestCachedLeaderPanicReleasesWaitersWithError asserts the fault-containment
// contract: when the singleflight leader's inner computation panics, every
// concurrent waiter is released with an ERROR (not a cascading panic in its
// own goroutine), while the panic itself continues up the leader's stack.
func TestCachedLeaderPanicReleasesWaitersWithError(t *testing.T) {
	view := smallView(t, 3)
	inner := &panickyDetector{gate: make(chan struct{})}
	c := NewCached(inner)

	const n = 8
	var panics, errsWithMark atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Only the leader's goroutine may see the panic.
					panics.Add(1)
				}
			}()
			_, err := c.Scores(ctx, view)
			if err != nil && strings.Contains(err.Error(), "panicked in its leader") {
				errsWithMark.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c.CacheStats().Calls == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for concurrent callers")
		}
		time.Sleep(time.Millisecond)
	}
	close(inner.gate)
	wg.Wait()

	if got := panics.Load(); got != 1 {
		t.Errorf("%d goroutines panicked, want exactly 1 (the leader)", got)
	}
	if got := errsWithMark.Load(); got != n-1 {
		t.Errorf("%d waiters got the leader-panic error, want %d", got, n-1)
	}
	// The failure must not be memoised: a later call runs the inner
	// detector again (and panics again, proving a fresh computation).
	func() {
		defer func() { recover() }()
		_, err := c.Scores(ctx, view)
		t.Errorf("post-crash call returned err=%v instead of recomputing", err)
	}()
}

// retryProbeDetector fails its first call by blocking until that call's ctx
// is cancelled; later calls succeed. It probes the waiter-retry path: a
// leader cancelled by its own context must not poison waiters whose
// contexts are still live.
type retryProbeDetector struct {
	calls  atomic.Int32
	scores []float64
}

func (d *retryProbeDetector) Name() string { return "retry-probe" }

func (d *retryProbeDetector) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	if d.calls.Add(1) == 1 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return d.scores, nil
}

func TestCachedWaiterRetriesAfterLeaderContextCancelled(t *testing.T) {
	view := smallView(t, 4)
	inner := &retryProbeDetector{scores: []float64{7, 7}}
	c := NewCached(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Scores(leaderCtx, view)
		leaderErr <- err
	}()
	// Wait for the leader to enter the inner detector.
	deadline := time.Now().Add(10 * time.Second)
	for inner.calls.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the inner detector")
		}
		time.Sleep(time.Millisecond)
	}
	// A waiter with a live context joins the in-flight call.
	waiterScores := make(chan []float64, 1)
	waiterErrC := make(chan error, 1)
	go func() {
		s, err := c.Scores(context.Background(), view)
		waiterScores <- s
		waiterErrC <- err
	}()
	// Let the waiter park on the in-flight call, then kill the leader.
	for {
		if c.CacheStats().Calls == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never entered Scores")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()

	if err := <-leaderErr; err == nil {
		t.Error("cancelled leader returned nil error")
	}
	if err := <-waiterErrC; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
	if s := <-waiterScores; len(s) != 2 || s[0] != 7 {
		t.Errorf("waiter scores = %v after retry", s)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("inner detector ran %d times, want 2 (failed leader + retrying waiter)", got)
	}
}

// TestCachedWaiterOwnContextCancelled: a waiter whose OWN context dies while
// parked on another goroutine's computation returns promptly with its error.
func TestCachedWaiterOwnContextCancelled(t *testing.T) {
	view := smallView(t, 5)
	inner := &gatedDetector{gate: make(chan struct{}), scores: []float64{1}}
	c := NewCached(inner)
	go c.Scores(context.Background(), view) // leader, parked on the gate
	deadline := time.Now().Add(10 * time.Second)
	for inner.inner.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Scores(waiterCtx, view)
		done <- err
	}()
	for {
		if c.CacheStats().Calls == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelWaiter()
	select {
	case err := <-done:
		if err == nil {
			t.Error("waiter with dead context returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter did not unblock on its own cancellation")
	}
	close(inner.gate) // release the leader for cleanup
}

// TestDetectorWorkerCountInvariance asserts the determinism contract of the
// parallel inner loops: every detector returns bit-identical scores at any
// worker count.
func TestDetectorWorkerCountInvariance(t *testing.T) {
	view := smallView(t, 3)
	t.Run("iForest", func(t *testing.T) {
		serial := mustScores(t, &IsolationForest{Trees: 20, Subsample: 32, Repetitions: 3, Seed: 7}, view)
		for _, w := range []int{2, 8} {
			par := mustScores(t, &IsolationForest{Trees: 20, Subsample: 32, Repetitions: 3, Seed: 7, Workers: w}, view)
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("workers=%d: score[%d] = %v, serial %v", w, i, par[i], serial[i])
				}
			}
		}
	})
	t.Run("LOF", func(t *testing.T) {
		serial := mustScores(t, NewLOF(5), view)
		par := mustScores(t, &LOF{K: 5, Workers: 8}, view)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("score[%d] = %v, serial %v", i, par[i], serial[i])
			}
		}
	})
	t.Run("FastABOD", func(t *testing.T) {
		serial := mustScores(t, NewFastABOD(5), view)
		par := mustScores(t, &FastABOD{K: 5, Workers: 8}, view)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("score[%d] = %v, serial %v", i, par[i], serial[i])
			}
		}
	})
}

// TestTimedDetector checks the scoring-time accumulator used for per-phase
// pipeline timing.
func TestTimedDetector(t *testing.T) {
	view := smallView(t, 4)
	td := NewTimed(NewLOF(5))
	if td.Name() != "LOF" {
		t.Errorf("name %q", td.Name())
	}
	if td.Elapsed() != 0 || td.Calls() != 0 {
		t.Error("fresh timer not zero")
	}
	s := mustScores(t, td, view)
	if len(s) != view.N() {
		t.Fatalf("scores len %d", len(s))
	}
	if td.Elapsed() <= 0 || td.Calls() != 1 {
		t.Errorf("after one call: elapsed %v, calls %d", td.Elapsed(), td.Calls())
	}
}
