package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anex/internal/subspace"
)

func subs(keys ...string) []subspace.Subspace {
	out := make([]subspace.Subspace, len(keys))
	for i, k := range keys {
		s, err := subspace.Parse(k)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPrecision(t *testing.T) {
	returned := subs("0,1", "2,3", "4,5", "6,7")
	relevant := subs("2,3", "6,7")
	if p := Precision(returned, relevant); !almost(p, 0.5) {
		t.Errorf("Precision = %v", p)
	}
	if p := Precision(nil, relevant); p != 0 {
		t.Errorf("empty EXP Precision = %v", p)
	}
}

func TestRecall(t *testing.T) {
	returned := subs("0,1", "2,3")
	relevant := subs("2,3", "4,5", "6,7")
	if r := Recall(returned, relevant); !almost(r, 1.0/3) {
		t.Errorf("Recall = %v", r)
	}
	if r := Recall(returned, nil); r != 0 {
		t.Errorf("empty REL Recall = %v", r)
	}
	// Duplicate returned subspaces must count once.
	dup := subs("2,3", "2,3")
	if r := Recall(dup, relevant); !almost(r, 1.0/3) {
		t.Errorf("duplicate Recall = %v", r)
	}
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	relevant := subs("0,1", "2,3")
	returned := subs("0,1", "2,3", "4,5")
	// P@1·1 + P@2·1 = 1 + 1 → /2 = 1.
	if ap := AveragePrecision(returned, relevant); !almost(ap, 1) {
		t.Errorf("perfect AveP = %v", ap)
	}
}

func TestAveragePrecisionWorstRanking(t *testing.T) {
	relevant := subs("9,10")
	returned := subs("0,1", "2,3", "9,10")
	// Only hit at rank 3: P@3 = 1/3 → AveP = 1/3.
	if ap := AveragePrecision(returned, relevant); !almost(ap, 1.0/3) {
		t.Errorf("AveP = %v", ap)
	}
}

func TestAveragePrecisionTextbookExample(t *testing.T) {
	// Hits at ranks 1 and 3 of three relevant: (1/1 + 2/3)/3.
	relevant := subs("0,1", "2,3", "4,5")
	returned := subs("0,1", "8,9", "2,3")
	want := (1.0 + 2.0/3) / 3
	if ap := AveragePrecision(returned, relevant); !almost(ap, want) {
		t.Errorf("AveP = %v, want %v", ap, want)
	}
}

func TestAveragePrecisionMissingEverything(t *testing.T) {
	if ap := AveragePrecision(subs("0,1"), subs("2,3")); ap != 0 {
		t.Errorf("AveP = %v", ap)
	}
	if ap := AveragePrecision(nil, subs("2,3")); ap != 0 {
		t.Errorf("empty EXP AveP = %v", ap)
	}
	if ap := AveragePrecision(subs("0,1"), nil); ap != 0 {
		t.Errorf("empty REL AveP = %v", ap)
	}
}

func TestAveragePrecisionDuplicatesCountOnce(t *testing.T) {
	relevant := subs("0,1")
	returned := subs("0,1", "0,1", "0,1")
	if ap := AveragePrecision(returned, relevant); !almost(ap, 1) {
		t.Errorf("AveP with duplicates = %v", ap)
	}
}

func TestMAPAndMeanRecall(t *testing.T) {
	results := []PointResult{
		{Point: 1, AveP: 1, Recall: 1},
		{Point: 2, AveP: 0.5, Recall: 0},
		{Point: 3, AveP: 0, Recall: 0.5},
	}
	if m := MAP(results); !almost(m, 0.5) {
		t.Errorf("MAP = %v", m)
	}
	if r := MeanRecall(results); !almost(r, 0.5) {
		t.Errorf("MeanRecall = %v", r)
	}
	if MAP(nil) != 0 || MeanRecall(nil) != 0 {
		t.Error("empty results should yield 0")
	}
}

func TestEvaluatePoint(t *testing.T) {
	res := EvaluatePoint(7, subs("0,1", "2,3"), subs("2,3"))
	if res.Point != 7 || res.Relevant != 1 || res.Returned != 2 {
		t.Errorf("bookkeeping wrong: %+v", res)
	}
	if !almost(res.AveP, 0.5) || !almost(res.Recall, 1) {
		t.Errorf("metrics wrong: %+v", res)
	}
}

func TestPropertyMetricBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(retRaw, relRaw []uint8) bool {
		returned := randomSubs(rng, retRaw)
		relevant := randomSubs(rng, relRaw)
		p := Precision(returned, relevant)
		r := Recall(returned, relevant)
		ap := AveragePrecision(returned, relevant)
		for _, v := range []float64{p, r, ap} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		// AveP ≤ Recall never holds in general, but AveP ≤ 1 and
		// AveP > 0 requires at least one hit.
		if ap > 0 && r == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPerfectPrefixIsOptimal(t *testing.T) {
	// Placing all relevant subspaces first always yields AveP = 1.
	rng := rand.New(rand.NewSource(9))
	f := func(relRaw []uint8, fillerRaw []uint8) bool {
		relevant := randomSubs(rng, relRaw)
		if len(relevant) == 0 {
			return true
		}
		filler := randomSubs(rng, fillerRaw)
		returned := make([]subspace.Subspace, 0, len(relevant)+len(filler))
		returned = append(returned, relevant...)
		for _, f := range filler {
			dup := false
			for _, r := range relevant {
				if r.Equal(f) {
					dup = true
					break
				}
			}
			if !dup {
				returned = append(returned, f)
			}
		}
		return almost(AveragePrecision(returned, relevant), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomSubs converts fuzz bytes into distinct small subspaces.
func randomSubs(rng *rand.Rand, raw []uint8) []subspace.Subspace {
	seen := make(map[string]bool)
	var out []subspace.Subspace
	for _, b := range raw {
		s := subspace.New(int(b%8), int(b/8%8)+8)
		if !seen[s.Key()] {
			seen[s.Key()] = true
			out = append(out, s)
		}
	}
	return out
}
