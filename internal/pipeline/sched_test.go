package pipeline

import (
	"testing"
	"time"
)

func schedCells() []Cell {
	return []Cell{
		{order: 0, Detector: "LOF", Explainer: "Beam_FX", Dim: 2},
		{order: 1, Detector: "LOF", Explainer: "RefOut", Dim: 2},
		{order: 2, Detector: "FastABOD", Explainer: "Beam_FX", Dim: 2},
		{order: 3, Detector: "FastABOD", Explainer: "RefOut", Dim: 2},
		{order: 4, Detector: "LOF", Explainer: "Beam_FX", Dim: 4},
	}
}

// TestCellSchedulerLongestFirst: cost-aware dispatch pops by descending
// static estimate — RefOut cells (5× prior) before Beam cells, the pricier
// detector and deeper dimensionality first within each explainer. Each
// cell finishes before the next pop, so no view group is running and the
// order is the pure estimate order. The cells finish unrun (zero elapsed):
// a zero observation must not reach the estimates.
func TestCellSchedulerLongestFirst(t *testing.T) {
	s := newCellScheduler(schedCells())
	want := []int{3, 1, 4, 2, 0} // FastABOD/RefOut, LOF/RefOut, 4d Beam, FastABOD/Beam, LOF/Beam
	for i, w := range want {
		c, ok := s.next()
		if !ok {
			t.Fatalf("drained after %d cells, want %d", i, len(want))
		}
		if c.order != w {
			t.Fatalf("pop %d: order=%d, want %d", i, c.order, w)
		}
		s.finish(c, 0)
	}
	if _, ok := s.next(); ok {
		t.Fatal("scheduler not drained")
	}
	if len(s.units) != 0 || len(s.running) != 0 {
		t.Fatalf("unrun cells left state behind: units=%v running=%v", s.units, s.running)
	}
}

// TestCellSchedulerSeparatesViewSharers: a free worker skips a costlier
// cell whose (explainer, dimension) group is already running, takes the
// costliest sharer only when nothing else is pending, and a cell stamped
// with the grid's cancellation still releases its group.
func TestCellSchedulerSeparatesViewSharers(t *testing.T) {
	pop := func(s *cellScheduler, want int) Cell {
		t.Helper()
		c, ok := s.next()
		if !ok || c.order != want {
			t.Fatalf("popped order=%d ok=%v, want %d", c.order, ok, want)
		}
		return c
	}
	s := newCellScheduler(schedCells())
	pop(s, 3) // FastABOD/RefOut/2 runs ...
	pop(s, 4) // ... so the 4d Beam goes next, not LOF/RefOut/2
	pop(s, 2) // FastABOD/Beam_FX/2: its group is still free
	// Only sharers remain (RefOut/2 and Beam_FX/2 both run): the costliest
	// sharer pops.
	pop(s, 1)
	pop(s, 0)

	s = newCellScheduler(schedCells())
	s.finish(pop(s, 3), 0) // cancelled before it ran: releases RefOut/2
	pop(s, 1)
}

// TestCellSchedulerFIFO: cells with equal estimates dispatch in their
// deterministic order, also once an observed wall time has priced their
// explainer — the property a serial grid's journal-resume test relies on.
func TestCellSchedulerFIFO(t *testing.T) {
	cells := []Cell{
		{order: 0, Detector: "LOF-10", Explainer: "Beam_FX", Dim: 2},
		{order: 1, Detector: "LOF-15", Explainer: "Beam_FX", Dim: 2},
		{order: 2, Detector: "LOF-20", Explainer: "Beam_FX", Dim: 2},
		{order: 3, Detector: "LOF-25", Explainer: "Beam_FX", Dim: 2},
	}
	s := newCellScheduler(cells)
	for i := range cells {
		c, ok := s.next()
		if !ok || c.order != i {
			t.Fatalf("pop %d: order=%d ok=%v, want FIFO", i, c.order, ok)
		}
		s.finish(c, time.Duration(i+1)*time.Millisecond)
	}
}

// TestCellSchedulerEWMARefinement: observed wall times override the static
// priors — an explainer that proves 100× more expensive than its prior
// jumps the queue.
func TestCellSchedulerEWMARefinement(t *testing.T) {
	cells := []Cell{
		{order: 0, Detector: "LOF", Explainer: "RefOut", Dim: 2},  // prior 5
		{order: 1, Detector: "LOF", Explainer: "LookOut", Dim: 2}, // prior 1
	}
	s := newCellScheduler(cells)
	// LookOut was observed to take 100 s per unit; RefOut 0.01 s per unit.
	s.finish(Cell{Detector: "LOF", Explainer: "LookOut", Dim: 2}, 100*time.Second)
	s.finish(Cell{Detector: "LOF", Explainer: "RefOut", Dim: 2}, 50*time.Millisecond)
	c, _ := s.next()
	if c.Explainer != "LookOut" {
		t.Fatalf("popped %s first, want the observed-expensive LookOut", c.Explainer)
	}
}
