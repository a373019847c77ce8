package pipeline

import (
	"sync"
	"time"
)

// Cost-aware cell scheduling. A grid's cells have wildly unequal runtimes
// (BENCH_4: a RefOut cell costs ~5× a Beam cell on the same detector), so
// FIFO dispatch routinely strands one worker on a huge cell it picked up
// last while the others sit idle — the classic makespan pathology. Greedy
// longest-estimated-first dispatch (LPT list scheduling) avoids it: each
// free worker takes the most expensive pending cell, so the big rocks are
// placed first and the small cells pack around them.
//
// Cells that walk the same views are kept apart. A cell's view group is its
// (explainer, dimension): two detectors under one explainer at one
// dimensionality ask the shared plane for the same subspaces in the same
// order (HiCS_FX cells also share one contrast search), so running them
// side by side leaves one worker parked in the other's singleflight wait
// instead of computing. A free worker therefore takes the costliest pending
// cell whose group has no running cell, and falls back to the costliest
// cell overall only when every pending cell's group is already running.
//
// Estimates start from static priors per explainer, detector, and target
// dimensionality (calibrated against results/BENCH_4.json) and are refined
// online: each completed cell's wall time is folded into an EWMA of the
// "seconds per static cost unit" of its explainer, so the second half of a
// grid is scheduled with observed costs, not guesses. Only DISPATCH ORDER
// depends on the estimates — every cell writes its own results[order] slot
// and all shared state (score caches, the neighbourhood plane) is
// value-deterministic, so grid output is byte-identical in any dispatch
// order, at any worker count (TestGridSchedulerInvariance).

// explainerPrior is the relative base cost of one cell of the explainer,
// in Beam-cell units (BENCH_4, Figure 9 workload: RefOut ≈ 5× Beam_FX;
// HiCS's Monte-Carlo contrast sits in between; LookOut's submodular sweep
// is Beam-like).
func explainerPrior(name string) float64 {
	switch name {
	case "RefOut":
		return 5
	case "HiCS_FX", "HiCS":
		return 3
	case "Beam_FX", "Beam", "LookOut":
		return 1
	}
	return 2 // unknown explainers: mid-range guess until observed
}

// detectorPrior scales for the scoring cost of the detector driving the
// cell (BENCH_4, 1000×3: FastABOD ≈ 1.3× LOF, kNN-dist ≈ 0.8×).
func detectorPrior(name string) float64 {
	switch name {
	case "FastABOD":
		return 1.3
	case "kNN-dist":
		return 0.8
	}
	return 1
}

// dimPrior scales for the target dimensionality: the staged explainers run
// roughly one candidate sweep per added feature beyond the 2d base.
func dimPrior(dim int) float64 {
	if dim < 2 {
		dim = 2
	}
	return float64(dim) / 2
}

func staticCost(c Cell) float64 {
	return explainerPrior(c.Explainer) * detectorPrior(c.Detector) * dimPrior(c.Dim)
}

// cellScheduler hands pending cells to free workers, longest-estimated
// first, keeping view groups apart. Equal estimates dispatch in the cells'
// deterministic (dimension, detector, explainer) order.
type cellScheduler struct {
	mu      sync.Mutex
	pending []Cell
	// units holds, per explainer, an EWMA of observed seconds per static
	// cost unit. Missing entries fall back to the pure prior.
	units map[string]float64
	// running counts the popped, unfinished cells of each view group.
	running map[viewGroup]int
}

// viewGroup is the (explainer, dimension) pair whose cells walk the same
// subspace views whatever their detector.
type viewGroup struct {
	explainer string
	dim       int
}

func groupOf(c Cell) viewGroup { return viewGroup{c.Explainer, c.Dim} }

func newCellScheduler(pending []Cell) *cellScheduler {
	return &cellScheduler{
		pending: pending,
		units:   make(map[string]float64),
		running: make(map[viewGroup]int),
	}
}

// next pops the next cell to dispatch; ok=false when the grid is drained.
// Every popped cell must be handed back through finish. Ties keep the
// lowest order, so the dispatch sequence itself is deterministic for a
// fixed estimate and running state.
func (s *cellScheduler) next() (c Cell, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return Cell{}, false
	}
	best, bestFree := -1, false
	var bestCost float64
	for i, p := range s.pending {
		free := s.running[groupOf(p)] == 0
		est := s.estimateLocked(p)
		if best < 0 || (free && !bestFree) || (free == bestFree && est > bestCost) {
			best, bestFree, bestCost = i, free, est
		}
	}
	c = s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)
	s.running[groupOf(c)]++
	return c, true
}

func (s *cellScheduler) estimateLocked(c Cell) float64 {
	est := staticCost(c)
	if unit, ok := s.units[c.Explainer]; ok {
		est *= unit
	}
	return est
}

// ewmaAlpha weights the newest observation; 0.4 adapts within 2–3 cells
// while smoothing over cache-warmth noise between the first and later
// cells of an explainer.
const ewmaAlpha = 0.4

// finish hands a popped cell back: it releases the cell's view group and,
// when the cell ran (elapsed > 0), folds its wall time into the estimates.
// A cell stamped with the grid's cancellation never ran and passes zero —
// a zero observation would price its explainer at nothing.
func (s *cellScheduler) finish(c Cell, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := groupOf(c)
	if s.running[g]--; s.running[g] <= 0 {
		delete(s.running, g)
	}
	if elapsed <= 0 {
		return
	}
	unit := elapsed.Seconds() / staticCost(c)
	if prev, ok := s.units[c.Explainer]; ok {
		s.units[c.Explainer] = (1-ewmaAlpha)*prev + ewmaAlpha*unit
	} else {
		s.units[c.Explainer] = unit
	}
}
