package detector

import "anex/internal/neighbors"

// window.go — the kNN detectors' face toward the incremental stream engine.
//
// The sliding-window monitor maintains each window's neighbourhood
// incrementally (neighbors.WindowEngine) and publishes it into the
// detector's own plane under the window dataset's key. The detector then
// scores the window with its ordinary Scores: the kNN phase is a plane
// hit, so a stride costs the engine's repair plus one pass of the
// detector's arithmetic, and the scores are those of a cold Scores by
// construction — the plane serves the engine's rows, which are
// bit-identical to a cold rebuild.

// WindowScorer is implemented by the kNN detectors whose neighbourhood the
// monitor can maintain incrementally. Detectors without it (iForest, LODA)
// are scored cold every stride.
type WindowScorer interface {
	// WindowK returns the neighbourhood depth the engine must maintain for
	// this detector — its effective k — and the plane the detector reads
	// its neighbourhoods from. A nil plane means the detector computes
	// every window privately, so there is nothing to publish into.
	WindowK() (int, *neighbors.Plane)
}

// WindowK returns LOF's neighbourhood size and plane.
func (l *LOF) WindowK() (int, *neighbors.Plane) { return l.k(), l.Neighbors }

// WindowK returns kNN-dist's neighbourhood size and plane.
func (d *KNNDist) WindowK() (int, *neighbors.Plane) { return d.k(), d.Neighbors }

// WindowK returns FastABOD's neighbourhood size and plane.
func (a *FastABOD) WindowK() (int, *neighbors.Plane) { return a.k(), a.Neighbors }
