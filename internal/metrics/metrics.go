// Package metrics implements the evaluation measures of the paper
// (Section 3.3): precision, average precision, Mean Average Precision
// (MAP), and Mean Recall of ranked subspace explanations against a ground
// truth of relevant subspaces. A returned subspace counts as relevant only
// when it is identical to a ground-truth subspace.
package metrics

import (
	"anex/internal/subspace"
)

// relSet is a key-set over canonical subspaces.
type relSet map[string]bool

func newRelSet(relevant []subspace.Subspace) relSet {
	set := make(relSet, len(relevant))
	for _, s := range relevant {
		set[s.Key()] = true
	}
	return set
}

// Precision returns |REL ∩ EXP| / |EXP| (Eq. 1); an empty list yields 0.
func Precision(returned, relevant []subspace.Subspace) float64 {
	if len(returned) == 0 {
		return 0
	}
	set := newRelSet(relevant)
	hits := 0
	for _, s := range returned {
		if set[s.Key()] {
			hits++
		}
	}
	return float64(hits) / float64(len(returned))
}

// Recall returns |REL ∩ EXP| / |REL|: the fraction of relevant subspaces
// that appear anywhere in the returned list.
func Recall(returned, relevant []subspace.Subspace) float64 {
	if len(relevant) == 0 {
		return 0
	}
	set := newRelSet(relevant)
	hits := 0
	for _, s := range returned {
		if set[s.Key()] {
			hits++
			delete(set, s.Key()) // count duplicates in EXP once
		}
	}
	return float64(hits) / float64(len(relevant))
}

// AveragePrecision returns AveP (Eq. 2):
//
//	AveP = Σ_k P@k · rel(k) / |REL|
//
// where rel(k) indicates whether the subspace at rank k is relevant.
// Duplicate occurrences of a relevant subspace contribute only once, at
// their first rank. It is 0 when REL is empty.
func AveragePrecision(returned, relevant []subspace.Subspace) float64 {
	if len(relevant) == 0 {
		return 0
	}
	set := newRelSet(relevant)
	var sum float64
	hits := 0
	for k, s := range returned {
		if set[s.Key()] {
			delete(set, s.Key())
			hits++
			sum += float64(hits) / float64(k+1)
		}
	}
	return sum / float64(len(relevant))
}

// PointResult is the evaluation of one explained point.
type PointResult struct {
	Point int
	// AveP is the average precision of the explanation (Eq. 2).
	AveP float64
	// Recall is the fraction of the point's relevant subspaces returned.
	Recall float64
	// Relevant is |REL_p| and Returned is |EXP_a(p)|.
	Relevant, Returned int
}

// MAP returns the Mean Average Precision over per-point results (Eq. 3).
func MAP(results []PointResult) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.AveP
	}
	return sum / float64(len(results))
}

// MeanRecall returns the mean per-point recall over the results.
func MeanRecall(results []PointResult) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Recall
	}
	return sum / float64(len(results))
}

// EvaluatePoint scores one point's returned explanation list against its
// relevant subspaces.
func EvaluatePoint(p int, returned, relevant []subspace.Subspace) PointResult {
	return PointResult{
		Point:    p,
		AveP:     AveragePrecision(returned, relevant),
		Recall:   Recall(returned, relevant),
		Relevant: len(relevant),
		Returned: len(returned),
	}
}
