package detector

import "slices"

// window.go — the dirty-aware scoring path of the incremental stream engine.
//
// The sliding-window monitor maintains neighbourhoods incrementally
// (neighbors.WindowEngine) and knows, per stride, exactly which window slots'
// exported k-prefixes changed. A detector that can exploit that re-scores
// only the points whose score inputs could have changed and re-serves the
// previous evaluation's value — bit-identical, because the inputs are
// bit-identical — for everything else. What "could have changed" means is
// per-detector:
//
//   - kNN-dist reads only a point's own neighbour distances: dirty(i) alone.
//   - LOF is a 2-hop function: lrd(i) reads i's distances and its
//     neighbours' k-distances (their row tails), so lrd is dirty when i or
//     any neighbour is; the score reads neighbours' lrds, so it is dirty
//     when lrd-dirty(i) or any neighbour is lrd-dirty. k-distances are
//     always read live from the current rows — O(n) — rather than tracked.
//   - FastABOD reads neighbour COORDINATES, not just distances. A
//     neighbour's coordinates change only when its slot was re-occupied,
//     and the engine marks every arrival slot dirty, so dirty(i) or any
//     dirty neighbour again covers it. The final -Inf sentinel substitution
//     is a global pass (it needs the minimum finite score across ALL
//     points), so raw scores are memoised and the substitution re-runs over
//     the full window each evaluation.
//
// Dirtiness is conservative by construction — the engine marks the
// maintained winK-prefix, a superset of any detector's own k-prefix — which
// costs spurious rescores, never a stale score. There is one kernel per
// detector (lofScores, knnDistScores, negABOF with floorSentinels): Scores
// runs it with every point dirty and no memo, ScoresWindow with the
// engine's dirty marks and the memo's previous values, so a full rescore
// and an incremental one emit identical bit patterns by construction.

// WindowScorer is implemented by detectors that can score a sliding window
// incrementally from a maintained neighbourhood export. The monitor feeds
// it the window rows (slot-ordered, matching the export's row indices), the
// flat row-major neighbour arrays (m valid entries per stride-spaced row,
// ascending (distance, index)), the per-slot dirty marks of the last
// stride, and the detector's private memo. It returns the full window's
// scores — a fresh slice each call — plus how many points were actually
// re-scored. Passing an invalid memo (zero value, or sized for a different
// window) degrades to a full rescore; results are bit-identical to Scores
// over the same rows either way.
type WindowScorer interface {
	// WindowK returns the neighbourhood depth the engine must maintain for
	// this detector — its effective k.
	WindowK() int
	// ScoresWindow scores the window incrementally. dirty must have one
	// mark per row; memo must be this detector's own (one memo may not be
	// shared between detectors, nor between monitors).
	ScoresWindow(points [][]float64, idx []int32, dist []float64, m, stride int, dirty []bool, memo *WindowMemo) (scores []float64, rescored int)
}

// WindowMemo carries one detector's per-window scoring state between
// evaluations. The zero value is ready to use (the first evaluation is a
// full rescore). The monitor owns one memo per detector and discards it
// whenever the engine is rebuilt cold.
type WindowMemo struct {
	n, m   int       // window size and neighbourhood depth the state is for
	scores []float64 // previous scores (FastABOD: raw, -Inf sentinels kept)
	lrd    []float64 // LOF only: previous local reachability densities
}

// begin prepares the memo for a window of n points scored at depth m and
// returns the dirty marks the kernels must honour: the caller's when the
// memo already holds state for exactly this window, otherwise nil — every
// point — after resizing the memo (a full rescore).
func (mm *WindowMemo) begin(n, m int, dirty []bool) []bool {
	if mm.n == n && mm.m == m && len(mm.scores) == n {
		return dirty
	}
	mm.n, mm.m = n, m
	if cap(mm.scores) < n {
		mm.scores = make([]float64, n)
	}
	mm.scores = mm.scores[:n]
	return nil
}

// touched reports whether point i or any of its md neighbours is marked in
// dirty; a nil dirty marks every point.
func touched(dirty []bool, idx []int32, i, md, stride int) bool {
	if dirty == nil || dirty[i] {
		return true
	}
	for _, o := range idx[i*stride : i*stride+md] {
		if dirty[o] {
			return true
		}
	}
	return false
}

// WindowK returns the engine depth LOF needs: its neighbourhood size.
func (l *LOF) WindowK() int { return l.k() }

// ScoresWindow runs LOF.Scores's kernel over the window, restricted to the
// lrd-dirty and score-dirty sets (2 hops from the dirty marks).
func (l *LOF) ScoresWindow(points [][]float64, idx []int32, dist []float64, m, stride int, dirty []bool, memo *WindowMemo) ([]float64, int) {
	n, md := len(points), min(l.k(), m)
	if md < 1 {
		// No neighbours exist; every point is a perfect inlier (the n=1
		// degenerate of Scores).
		out := make([]float64, n)
		for i := range out {
			out[i] = 1
		}
		return out, 0
	}
	dirty = memo.begin(n, md, dirty)
	out := slices.Clone(memo.scores)
	if cap(memo.lrd) < n {
		memo.lrd = make([]float64, n)
	}
	memo.lrd = memo.lrd[:n]
	rescored := lofScores(out, memo.lrd, idx, dist, md, stride, dirty)
	copy(memo.scores, out)
	return out, rescored
}

// WindowK returns the engine depth kNN-dist needs: its neighbourhood size.
func (d *KNNDist) WindowK() int { return d.k() }

// ScoresWindow runs KNNDist.Scores's kernel over the window. The score
// reads only the point's own neighbour distances, so dirty(i) alone decides.
func (d *KNNDist) ScoresWindow(points [][]float64, idx []int32, dist []float64, m, stride int, dirty []bool, memo *WindowMemo) ([]float64, int) {
	n, md := len(points), min(d.k(), m)
	if md < 1 {
		return make([]float64, n), 0
	}
	dirty = memo.begin(n, md, dirty)
	out := slices.Clone(memo.scores)
	rescored := knnDistScores(out, dist, md, stride, dirty)
	copy(memo.scores, out)
	return out, rescored
}

// WindowK returns the engine depth FastABOD needs: its neighbourhood size.
func (a *FastABOD) WindowK() int { return a.k() }

// ScoresWindow runs FastABOD.Scores's per-point kernel over the window.
// The angle spectrum reads neighbour coordinates; slot re-occupations are
// always marked dirty by the engine, so one hop of dirty propagation covers
// both neighbour-set and neighbour-coordinate changes. Raw scores (with the
// duplicate-point -Inf sentinels) are memoised and the global
// minimum-finite substitution re-runs over the whole window every call.
func (a *FastABOD) ScoresWindow(points [][]float64, idx []int32, dist []float64, m, stride int, dirty []bool, memo *WindowMemo) ([]float64, int) {
	n, md := len(points), min(a.k(), m)
	if md < 2 {
		// No angle pairs exist (the k<2 degenerate of Scores).
		return make([]float64, n), 0
	}
	dirty = memo.begin(n, md, dirty)
	dim := len(points[0])
	da, db := make([]float64, dim), make([]float64, dim)
	rescored := 0
	for i := range points {
		if touched(dirty, idx, i, md, stride) {
			memo.scores[i] = negABOF(points, i, idx[i*stride:i*stride+md], da, db)
			rescored++
		}
	}
	out := make([]float64, n)
	floorSentinels(memo.scores, out)
	return out, rescored
}
