// Package detector implements the three unsupervised outlier detectors of
// the paper's testbed (Section 2.1): the density-based Local Outlier Factor
// (LOF), the angle-based Fast ABOD, and the isolation-based Isolation
// Forest — plus a repetition-averaging wrapper and a score cache that
// memoises per-subspace scores across explainers.
//
// All detectors return scores where higher means more outlying, as required
// by the core.Detector contract, and observe their context between points
// so per-cell deadlines and SIGINT cancellation propagate into the hottest
// scoring loops.
package detector

import (
	"context"
	"fmt"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/failpoint"
	"anex/internal/memo"
	"anex/internal/neighbors"
	"anex/internal/stats"
)

// DefaultCacheBytes is the generous default byte budget of a Cached
// detector's score memo: large enough that the paper's testbeds never
// evict, small enough that a stage-1 Beam sweep over a 100d dataset
// (C(100,2) = 4950 score vectors) cannot grow without bound when datasets
// get big.
const DefaultCacheBytes = 256 << 20 // 256 MiB

// SiteMemoPublish is the failpoint site guarding score-memo publication:
// an armed error action makes the singleflight leader fail before any
// detector work, releasing its waiters with the injected error through
// the same path a real scoring failure takes.
const SiteMemoPublish = "memo.publish"

// Cached wraps a detector with a subspace-keyed memo. Pipelines score the
// same subspaces repeatedly — e.g. Beam and LookOut both score every 2d
// subspace of a dataset — so the cache collapses that duplicated work. It is
// safe for concurrent use, and concurrent misses on the same key are
// deduplicated singleflight-style: one caller computes while the others
// wait for its result, so a subspace is never scored twice no matter how
// many pipeline workers race on it.
//
// The memo is an internal/memo cache bounded by a byte budget
// (DefaultCacheBytes unless overridden via NewCachedBudget): entries are
// charged for their score payload plus their key and a small fixed
// overhead, and inserting past the budget evicts least-recently-used
// entries until the cache fits again. An evicted key that is requested
// later is simply recomputed — again singleflight-style, so concurrent
// refetches still score exactly once. Leader panics and cancellations
// follow the memo's fault-containment rules: waiters get an error, never a
// cascading panic, and waiters with live contexts retry after a leader
// cancelled by its own.
type Cached struct {
	inner core.Detector
	memo  *memo.Cache[scoreEntry]
}

// scoreEntry is one memoised score vector together with the population
// moments of its distribution — memoised so that Z-score standardisation
// of a cached subspace is O(1) instead of a fresh O(n) pass per (point,
// subspace) lookup.
type scoreEntry struct {
	scores         []float64
	mean, variance float64
}

// NewCached wraps d with a score memo keyed by (dataset source key,
// subspace). The source key carries the dataset's process-unique ID, so
// two datasets that share a name never read each other's scores. The memo
// holds at most DefaultCacheBytes of scores; use NewCachedBudget to tune
// the bound.
func NewCached(d core.Detector) *Cached {
	return NewCachedBudget(d, DefaultCacheBytes)
}

// NewCachedBudget is NewCached with an explicit byte budget for the score
// memo; maxBytes ≤ 0 selects DefaultCacheBytes. A budget smaller than a
// single score vector still works — every insert immediately evicts, so the
// cache degrades to pure singleflight deduplication.
func NewCachedBudget(d core.Detector, maxBytes int64) *Cached {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	size := func(e scoreEntry) int64 { return int64(len(e.scores)) * 8 }
	return &Cached{inner: d, memo: memo.New(maxBytes, size)}
}

// Name returns the wrapped detector's name.
func (c *Cached) Name() string { return c.inner.Name() }

// Inner returns the wrapped detector. The stream monitor uses it to reach
// a WindowScorer through the memo wrapper: it sizes its window engine by
// it and scores each window with it directly, since a window's scores are
// never asked for twice.
func (c *Cached) Inner() core.Detector { return c.inner }

// Scores returns memoised scores for the view's subspace, computing them on
// first access. The returned slice is shared; callers must not mutate it.
// When several goroutines miss on the same key simultaneously, exactly one
// runs the inner detector and the rest block until it finishes — a waiter
// counts as a hit, since it triggers no inner work. A waiter also unblocks
// when its own ctx is cancelled, returning ctx's error without waiting for
// the leader.
func (c *Cached) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	e, err := c.get(ctx, v)
	return e.scores, err
}

// ScoresWithStats returns memoised scores plus the population moments of
// their distribution (core.StatScorer), read off the same memo value —
// bit-identical to standardising the scores directly.
func (c *Cached) ScoresWithStats(ctx context.Context, v *dataset.View) (scores []float64, mean, variance float64, err error) {
	e, err := c.get(ctx, v)
	return e.scores, e.mean, e.variance, err
}

func (c *Cached) get(ctx context.Context, v *dataset.View) (scoreEntry, error) {
	key := v.SourceKey() + "|" + v.SubspaceKey()
	return c.memo.Get(ctx, key, nil, func(ctx context.Context) (scoreEntry, error) {
		if err := failpoint.Eval(SiteMemoPublish); err != nil {
			return scoreEntry{}, err
		}
		scores, err := c.inner.Scores(ctx, v)
		if err != nil {
			return scoreEntry{}, err
		}
		mean, variance := stats.PopulationMeanVariance(scores)
		return scoreEntry{scores: scores, mean: mean, variance: variance}, nil
	})
}

// CacheStats is a point-in-time snapshot of a Cached detector's memo.
type CacheStats struct {
	// Calls counts Scores/ScoresWithStats calls; Hits of those triggered no
	// inner work. A call that waited on another goroutine's in-flight
	// computation counts as a hit: N concurrent first accesses to one key
	// yield 1 inner call and N−1 hits.
	Calls, Hits int
	// Evictions counts entries dropped to honour the byte budget.
	Evictions int
	// Entries is the number of resident score vectors.
	Entries int
	// ResidentBytes is the budget charge of the resident entries; it never
	// exceeds MaxBytes.
	ResidentBytes int64
	// MaxBytes is the configured budget.
	MaxBytes int64
}

// CacheStats returns the memo's counters, including the eviction count
// and resident byte footprint.
func (c *Cached) CacheStats() CacheStats {
	s := c.memo.Stats()
	return CacheStats{
		Calls:         s.Calls,
		Hits:          s.Hits,
		Evictions:     s.Evictions,
		Entries:       s.Entries,
		ResidentBytes: s.Bytes,
		MaxBytes:      s.MaxBytes,
	}
}

// Forget drops every memoised score vector of the dataset identified by
// sourceKey (dataset.Dataset.SourceKey). Owners of short-lived datasets —
// the stream monitor's windows — call it when a dataset dies to release
// its entries eagerly instead of waiting for LRU pressure. Computations in
// flight publish after Forget returns and die with the next Forget (or
// under the byte budget).
func (c *Cached) Forget(sourceKey string) {
	if sourceKey == "" {
		return
	}
	c.memo.Forget(sourceKey + "|")
}

var _ core.Detector = (*Cached)(nil)

// checkView validates the common Scores preconditions.
func checkView(name string, v *dataset.View) error {
	if v == nil || v.N() == 0 {
		return fmt.Errorf("%s: empty view", name)
	}
	if v.Dim() == 0 {
		return fmt.Errorf("%s: zero-dimensional view", name)
	}
	return nil
}

// knnView is the kNN detectors' shared Scores prologue: it validates v,
// clamps k to n−1 (every other point is a neighbour, so degenerate
// parameterisations degrade instead of indexing out of bounds) and, when
// that leaves at least minK neighbours, returns the view's flat neighbour
// rows through p (nil: a private per-view index). m == 0 reports the
// degenerate case.
func knnView(ctx context.Context, name string, v *dataset.View, p *neighbors.Plane, k, minK, workers int) (idx []int32, dist []float64, m, stride int, err error) {
	if err = checkView(name, v); err != nil {
		return nil, nil, 0, 0, err
	}
	if k = min(k, v.N()-1); k < minK {
		return nil, nil, 0, 0, nil
	}
	return neighbors.AllKNNOrIndex(ctx, p, v, k, workers)
}
