package summarize

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"anex/internal/core"
	"anex/internal/detector"
)

// TestHiCSSearchCacheShared: two HiCS_FX instances that rank with
// different detectors share one cache over dims {2, 3}, running
// concurrently. The cache runs exactly one search, to dim 3, and every
// summary is bit-equal to the one an unshared instance returns.
func TestHiCSSearchCacheShared(t *testing.T) {
	ds, gt := testbed(t, 21)
	mk := func(det core.Detector, c *SearchCache) *HiCS {
		h := NewHiCSFX(det, 3)
		h.MCIterations = 20
		h.CandidateCutoff = 30
		h.Searches = c
		return h
	}
	dets := []core.Detector{detector.NewLOF(15), detector.NewFastABOD(10)}
	dims := []int{2, 3}
	cache := NewSearchCache(3)
	got := make([][]core.ScoredSubspace, len(dets)*len(dims))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i, det := range dets {
		for j, dim := range dims {
			wg.Add(1)
			go func(slot int, h *HiCS, dim int) {
				defer wg.Done()
				got[slot], errs[slot] = h.Summarize(context.Background(), ds, gt.Outliers(), dim)
			}(i*len(dims)+j, mk(det, cache), dim)
		}
	}
	wg.Wait()
	if st := cache.memo.Stats(); st.Computations != 1 {
		t.Fatalf("cache ran %d searches, want 1 (to the largest dimensionality): %+v", st.Computations, st)
	}
	for i, det := range dets {
		for j, dim := range dims {
			slot := i*len(dims) + j
			if errs[slot] != nil {
				t.Fatalf("%s/%dd: %v", det.Name(), dim, errs[slot])
			}
			want, err := mk(det, nil).Summarize(context.Background(), ds, gt.Outliers(), dim)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[slot], want) {
				t.Errorf("%s/%dd: shared-search summary differs from the unshared one", det.Name(), dim)
			}
		}
	}
}

// TestHiCSSearchByDimIsPerDimSearch: one search to dim 4 yields, at every
// dim k on the way, exactly what a search to k returns, for HiCS and
// HiCS_FX — the property that lets a SearchCache run one search per grid.
// A cache made for dim 3 serves 2d and 3d calls, in either order, from one
// search; one made for dim 2 re-runs its search when asked for 3d.
func TestHiCSSearchByDimIsPerDimSearch(t *testing.T) {
	ds, gt := testbed(t, 23)
	for _, fixed := range []bool{false, true} {
		h := &HiCS{Detector: detector.NewLOF(15), Seed: 7, MCIterations: 20, CandidateCutoff: 30, FixedDim: fixed}
		byDim, err := h.searchByDim(context.Background(), ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		for dim := 2; dim <= 4; dim++ {
			want, err := h.SearchContrastSubspaces(context.Background(), ds, dim)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(byDim[dim-2], want) {
				t.Errorf("fixed=%t: the dim-4 search's %dd list differs from a search to %d", fixed, dim, dim)
			}
		}
	}

	for _, tc := range []struct{ maxDim, searches, stale int }{{3, 1, 0}, {2, 2, 1}} {
		cache := NewSearchCache(tc.maxDim)
		h := NewHiCSFX(detector.NewLOF(15), 3)
		h.MCIterations = 20
		h.CandidateCutoff = 30
		h.Searches = cache
		for _, dim := range []int{2, 3, 2, 3} {
			if _, err := h.Summarize(context.Background(), ds, gt.Outliers(), dim); err != nil {
				t.Fatal(err)
			}
		}
		if st := cache.memo.Stats(); st.Computations != tc.searches || st.Stale != tc.stale {
			t.Errorf("cache for dim %d after 2d, 3d, 2d, 3d calls: %+v, want %d searches, %d stale",
				tc.maxDim, st, tc.searches, tc.stale)
		}
	}
}

// TestHiCSSearchCacheCancelledLeader: a search whose caller is cancelled
// midway leaves no entry behind, so the next caller of its key searches
// afresh instead of reading a truncated result.
func TestHiCSSearchCacheCancelledLeader(t *testing.T) {
	ds, gt := testbed(t, 22)
	cache := NewSearchCache(2)
	h := NewHiCSFX(detector.NewLOF(15), 3)
	h.MCIterations = 20000 // seconds of search, so the cancel lands midway
	h.Searches = cache
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := h.Summarize(ctx, ds, gt.Outliers(), 2)
		errc <- err
	}()
	for cache.memo.Stats().Calls == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if st := cache.memo.Stats(); st.Entries != 0 || st.Computations != 0 {
		t.Fatalf("cancelled search left cache state %+v", st)
	}
}
