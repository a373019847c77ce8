package server

import (
	"fmt"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/explain"
	"anex/internal/summarize"
)

// The factories below are THE construction path for user-facing
// detector/explainer names: the anexplain CLI and the anexd server both
// build their algorithms here, which is what makes a server response
// byte-identical to the equivalent CLI invocation (same hyper-parameters,
// same seed plumbing, same wrappers — pinned by the parity tests).

// DetectorNames lists the accepted -detector / "detector" values.
const DetectorNames = "lof, abod or iforest"

// AlgoNames lists the accepted -algo / "algo" values.
const AlgoNames = "beam, refout, lookout or hics"

// NewDetectorByName builds the named detector with the library defaults:
// LOF (k=15), Fast ABOD (k=10) or Isolation Forest (seeded). workers
// bounds the detector's inner scoring loops; results are identical at any
// count. The detector is returned with no plane — callers wire a
// neighbourhood plane (Engine wires its own) and wrap a score memo as they
// see fit.
func NewDetectorByName(name string, seed int64, workers int) (core.Detector, error) {
	switch name {
	case "lof":
		return &detector.LOF{Workers: workers}, nil
	case "abod":
		return &detector.FastABOD{Workers: workers}, nil
	case "iforest":
		return &detector.IsolationForest{Seed: seed, Workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown detector %q (want %s)", name, DetectorNames)
}

// IsPointAlgo reports whether algo names a point explainer (each point
// explained individually) rather than a summarizer (one ranked list
// jointly covering all points). Unknown names report false on both paths
// and surface from the New*ByName constructors.
func IsPointAlgo(algo string) bool { return algo == "beam" || algo == "refout" }

// IsSummaryAlgo reports whether algo names a summarizer.
func IsSummaryAlgo(algo string) bool { return algo == "lookout" || algo == "hics" }

// NewPointExplainerByName builds the named point explainer over det with
// the paper's settings (the CLI construction: Beam_FX, RefOut).
func NewPointExplainerByName(algo string, det core.Detector, seed int64) (core.PointExplainer, error) {
	switch algo {
	case "beam":
		return explain.NewBeamFX(det), nil
	case "refout":
		return explain.NewRefOut(det, seed), nil
	}
	return nil, fmt.Errorf("unknown point algorithm %q (want %s)", algo, AlgoNames)
}

// NewSummarizerByName builds the named summarizer over det with the
// paper's settings (the CLI construction: LookOut, HiCS_FX).
func NewSummarizerByName(algo string, det core.Detector, seed int64) (core.Summarizer, error) {
	switch algo {
	case "lookout":
		return summarize.NewLookOut(det), nil
	case "hics":
		return summarize.NewHiCSFX(det, seed), nil
	}
	return nil, fmt.Errorf("unknown summary algorithm %q (want %s)", algo, AlgoNames)
}
