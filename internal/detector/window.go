package detector

// window.go — the kNN detectors' face toward the incremental stream engine.
//
// The sliding-window monitor maintains each window's neighbourhood
// incrementally (neighbors.WindowEngine) and publishes it into the plane
// under the window dataset's key. The detector then scores the window with
// its ordinary Scores: the kNN phase is a plane hit, so a stride costs the
// engine's repair plus one pass of the detector's arithmetic, and the
// scores are those of a cold Scores by construction — the plane serves the
// engine's rows, which are bit-identical to a cold rebuild.

// WindowScorer is implemented by the kNN detectors whose neighbourhood the
// monitor can maintain incrementally. Detectors without it (iForest, LODA)
// are scored cold every stride.
type WindowScorer interface {
	// WindowK returns the neighbourhood depth the engine must maintain for
	// this detector — its effective k.
	WindowK() int
}

// WindowK returns the engine depth LOF needs: its neighbourhood size.
func (l *LOF) WindowK() int { return l.k() }

// WindowK returns the engine depth kNN-dist needs: its neighbourhood size.
func (d *KNNDist) WindowK() int { return d.k() }

// WindowK returns the engine depth FastABOD needs: its neighbourhood size.
func (a *FastABOD) WindowK() int { return a.k() }
