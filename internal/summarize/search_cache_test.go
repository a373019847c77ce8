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
// concurrently. The cache runs exactly one search per dimensionality, and
// every summary is bit-equal to the one an unshared instance returns.
func TestHiCSSearchCacheShared(t *testing.T) {
	ds, gt := testbed(t, 21)
	mk := func(det core.Detector, c *SearchCache) *HiCS {
		h := NewHiCSFX(det, 3)
		h.MCIterations = 20
		h.CandidateCutoff = 30
		h.Searches = c
		return h
	}
	cache := NewSearchCache()
	dets := []core.Detector{detector.NewLOF(15), detector.NewFastABOD(10)}
	dims := []int{2, 3}
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
	if st := cache.memo.Stats(); st.Computations != len(dims) {
		t.Fatalf("cache ran %d searches, want %d (one per dimensionality): %+v", st.Computations, len(dims), st)
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

// TestHiCSSearchCacheCancelledLeader: a search whose caller is cancelled
// midway leaves no entry behind, so the next caller of its key searches
// afresh instead of reading a truncated result.
func TestHiCSSearchCacheCancelledLeader(t *testing.T) {
	ds, gt := testbed(t, 22)
	cache := NewSearchCache()
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
