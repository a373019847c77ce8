package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/neighbors"
	"anex/internal/stats"
)

// viewCall is one detector computation recorded under the score memo: the
// view it scored, at which neighbourhood size, and for which op.
type viewCall struct {
	View  *dataset.View
	K     int
	Op    int64
	Start time.Time
}

// viewLog collects the views every recorder of one workload scored, in
// the order the calls started, and emits a detector.compute span for each.
// The op loop sets the current op and parent span before each op.
type viewLog struct {
	tr     *tracer
	op     atomic.Int64
	parent atomic.Int64

	mu    sync.Mutex
	calls []viewCall
}

func newViewLog(tr *tracer) *viewLog { return &viewLog{tr: tr} }

// setOp names the op (and its span) that subsequent calls belong to.
func (l *viewLog) setOp(op, parent int64) {
	l.op.Store(op)
	l.parent.Store(parent)
}

// take returns the calls recorded so far for op, in start order.
func (l *viewLog) take(op int64) []viewCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []viewCall
	for _, c := range l.calls {
		if c.Op == op {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

// recorder wraps a kNN detector beneath its score memo, so it sees memo
// misses only: it times each computation and logs the view for replay. It
// forwards SetNeighbors (plane injection) and core.StatScorer, so wrapping
// changes neither wiring nor arithmetic.
type recorder struct {
	inner core.Detector
	k     int
	log   *viewLog
}

func newRecorder(inner core.Detector, k int, log *viewLog) *recorder {
	return &recorder{inner: inner, k: k, log: log}
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	id := r.log.tr.id()
	op, parent := r.log.op.Load(), r.log.parent.Load()
	start := time.Now()
	s, err := r.inner.Scores(ctx, v)
	end := time.Now()
	r.log.tr.add(id, parent, op, "detector.compute", start, end, false)
	r.log.mu.Lock()
	r.log.calls = append(r.log.calls, viewCall{View: v, K: r.k, Op: op, Start: start})
	r.log.mu.Unlock()
	return s, err
}

// ScoresWithStats forwards to the inner detector's moments when it has
// them and otherwise computes them the way a direct standardisation does.
func (r *recorder) ScoresWithStats(ctx context.Context, v *dataset.View) ([]float64, float64, float64, error) {
	if ss, ok := r.inner.(core.StatScorer); ok {
		return ss.ScoresWithStats(ctx, v)
	}
	s, err := r.Scores(ctx, v)
	if err != nil {
		return nil, 0, 0, err
	}
	mean, variance := stats.PopulationMeanVariance(s)
	return s, mean, variance, nil
}

// SetNeighbors forwards plane injection to the wrapped detector.
func (r *recorder) SetNeighbors(p *neighbors.Plane) {
	if ns, ok := r.inner.(interface{ SetNeighbors(*neighbors.Plane) }); ok {
		ns.SetNeighbors(p)
	}
}

var (
	_ core.Detector   = (*recorder)(nil)
	_ core.StatScorer = (*recorder)(nil)
)

// Neighbour tiers, named by the PlaneStats counter a computation moved.
const (
	tierDeltaSweep  = "delta_sweep"  // Delta.SweepQueries
	tierDeltaSeeded = "delta_seeded" // Delta.ParentSeeded or Delta.FullSeeded
	tierDeltaCached = "delta_cached" // Delta.Queries alone (engine-internal hit)
	tierLandmark    = "landmark"     // Prune.Indexes (landmark + quant tiers)
	tierKDTree      = "kdtree"       // standard index, built as a KD-tree
	tierBrute       = "brute"        // standard index, anything else
)

// tierLedger is the replayed neighbour work of one op (or one set-up).
type tierLedger struct {
	Views map[string]int
	MS    map[string]float64
	// Stats is the replay plane's final counters.
	Stats neighbors.PlaneStats
}

// replayViews re-runs Plane.AllKNN for calls, in order, on a fresh plane
// registered at ks, timing each call and attributing every computation to
// the tier whose counter it moved. Hits cost nothing and are not timed
// into any tier.
func replayViews(ctx context.Context, calls []viewCall, ks []int) (tierLedger, error) {
	p := neighbors.NewPlane(0)
	for _, k := range ks {
		p.RegisterK(k)
	}
	led := tierLedger{Views: map[string]int{}, MS: map[string]float64{}}
	for _, c := range calls {
		before := p.Stats()
		start := time.Now()
		_, _, _, _, ok, err := p.AllKNN(ctx, c.View, c.K, 1)
		d := time.Since(start)
		if err != nil {
			return led, fmt.Errorf("replay %s: %w", c.View.Subspace(), err)
		}
		if !ok {
			return led, fmt.Errorf("replay %s: plane declined the view", c.View.Subspace())
		}
		after := p.Stats()
		if after.Computations == before.Computations {
			continue
		}
		tier := classify(before, after, c.View)
		led.Views[tier]++
		led.MS[tier] += ms(d)
	}
	led.Stats = p.Stats()
	return led, nil
}

// classify names the tier of one computation from the counters it moved.
// The KD-tree/brute split is the one thing PlaneStats does not count, so
// it asks NewIndex which index it builds for the view.
func classify(before, after neighbors.PlaneStats, v *dataset.View) string {
	switch {
	case after.Delta.SweepQueries > before.Delta.SweepQueries:
		return tierDeltaSweep
	case after.Delta.ParentSeeded > before.Delta.ParentSeeded, after.Delta.FullSeeded > before.Delta.FullSeeded:
		return tierDeltaSeeded
	case after.Delta.Queries > before.Delta.Queries:
		return tierDeltaCached
	case after.Prune.Indexes > before.Prune.Indexes:
		return tierLandmark
	}
	if _, ok := neighbors.NewIndex(v.Points()).(*neighbors.KDTree); ok {
		return tierKDTree
	}
	return tierBrute
}

// planeCounts are the PlaneStats counters that are fixed by which views
// were scored, whatever the order or thread count: the ones a replay must
// reproduce exactly.
func planeCounts(s neighbors.PlaneStats) map[string]int64 {
	return map[string]int64{
		"plane.queries":          int64(s.Queries),
		"plane.computations":     int64(s.Computations),
		"plane.upgrades":         int64(s.Upgrades),
		"delta.queries":          int64(s.Delta.Queries),
		"delta.sweep":            int64(s.Delta.SweepQueries),
		"delta.seeded":           int64(s.Delta.ParentSeeded + s.Delta.FullSeeded),
		"delta.rejected":         int64(s.Delta.Rejected),
		"prune.indexes":          int64(s.Prune.Indexes),
		"prune.candidates":       s.Prune.Candidates,
		"prune.scanned":          s.Prune.Scanned,
		"prune.quant_candidates": s.Prune.QuantCandidates,
		"prune.quant_rejected":   s.Prune.QuantRejected,
	}
}

// diffCounts describes the first difference between two counter maps
// ("" when equal).
func diffCounts(want, got map[string]int64) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			return fmt.Sprintf("%s: live %d, replay %d", k, want[k], got[k])
		}
	}
	return ""
}

// tierMetrics turns per-op ledgers into the neighbours per-layer metrics
// (medians over ops; views are exact counts).
func tierMetrics(ledgers []tierLedger, out map[string]metric) {
	per := func(f func(tierLedger) float64) float64 {
		if len(ledgers) == 0 {
			return 0
		}
		xs := make([]float64, len(ledgers))
		for i, l := range ledgers {
			xs[i] = f(l)
		}
		return median(xs)
	}
	sumMS := func(l tierLedger, tiers ...string) float64 {
		var s float64
		for _, t := range tiers {
			s += l.MS[t]
		}
		return s
	}
	sumViews := func(l tierLedger, tiers ...string) float64 {
		var s int
		for _, t := range tiers {
			s += l.Views[t]
		}
		return float64(s)
	}
	delta := []string{tierDeltaSweep, tierDeltaSeeded, tierDeltaCached}
	out["neighbors.delta_ms"] = metric{per(func(l tierLedger) float64 { return sumMS(l, delta...) }), "ms"}
	out["neighbors.delta_views"] = metric{per(func(l tierLedger) float64 { return sumViews(l, delta...) }), "count"}
	for _, t := range []string{tierDeltaSweep, tierDeltaSeeded, tierKDTree, tierLandmark, tierBrute} {
		t := t
		out["neighbors."+t+"_ms"] = metric{per(func(l tierLedger) float64 { return l.MS[t] }), "ms"}
		out["neighbors."+t+"_views"] = metric{per(func(l tierLedger) float64 { return float64(l.Views[t]) }), "count"}
	}
	// The prune fractions read 0, not PruneStats' 1, when the tier never
	// engaged, like every other idle layer.
	out["neighbors.prune_scan_fraction"] = metric{per(func(l tierLedger) float64 {
		if l.Stats.Prune.Candidates == 0 {
			return 0
		}
		return l.Stats.Prune.ScanFraction()
	}), "ratio"}
	out["neighbors.prune_survivor_fraction"] = metric{per(func(l tierLedger) float64 {
		if l.Stats.Prune.QuantCandidates == 0 {
			return 0
		}
		return l.Stats.Prune.SurvivorFraction()
	}), "ratio"}
}
