package detector

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/neighbors"
)

// windowDetector is a kNN detector the stream monitor drives: its window
// depth sizes the engine, and its Scores reads the plane it is wired to.
type windowDetector interface {
	WindowScorer
	Scores(context.Context, *dataset.View) ([]float64, error)
	SetNeighbors(*neighbors.Plane)
}

// windowScorerCase drives the monitor's scoring path over a sliding stream:
// a real WindowEngine publishes each window's Neighborhood() into a private
// plane, and the detector's Scores over that plane must equal a plane-less
// cold Scores bit for bit at every evaluation, without the plane computing
// a single neighbourhood itself.
func windowScorerCase(t *testing.T, name string, newDet func() windowDetector, shape string) {
	t.Helper()
	t.Run(name+"/"+shape, func(t *testing.T) {
		const (
			W      = 60
			stride = 2
			d      = 5
			total  = 6 * W
		)
		rng := rand.New(rand.NewSource(11))
		gen := func() []float64 {
			p := make([]float64, d)
			switch shape {
			case "random":
				for j := range p {
					p[j] = rng.NormFloat64()
				}
			case "duplicates":
				if rng.Intn(2) == 0 {
					v := float64(rng.Intn(3))
					for j := range p {
						p[j] = v
					}
				} else {
					for j := range p {
						p[j] = rng.NormFloat64()
					}
				}
			}
			return p
		}
		plane := neighbors.NewPlane(0)
		det, cold := newDet(), newDet() // cold has no plane: a private index
		det.SetNeighbors(plane)
		k, _ := det.WindowK()
		eng := neighbors.NewWindowEngine(k, 4, 2)
		window := make([][]float64, 0, W)
		next := 0
		var batch []neighbors.WindowArrival
		evals := 0
		for i := 0; i < total; i++ {
			p := gen()
			slot := len(window)
			if slot < W {
				window = append(window, p)
			} else {
				slot = next
				window[next] = p
				next = (next + 1) % W
			}
			replaced := false
			for bi := range batch {
				if batch[bi].Slot == slot {
					batch[bi].Point = p
					replaced = true
					break
				}
			}
			if !replaced {
				batch = append(batch, neighbors.WindowArrival{Slot: slot, Point: p})
			}
			if len(window) < 4 || (i+1)%stride != 0 {
				continue
			}
			if err := eng.Apply(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
			ds, err := dataset.FromRows("win-cmp", window, nil)
			if err != nil {
				t.Fatal(err)
			}
			idx, dist, m, _ := eng.Neighborhood()
			plane.Publish(ds.FullView(), eng.K(), m, idx, dist)
			got, err := det.Scores(context.Background(), ds.FullView())
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Scores(context.Background(), ds.FullView())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("eval %d: %d scores, want %d", evals, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("eval %d: score[%d] = %v (%x), want %v (%x)",
						evals, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
			evals++
		}
		if evals < 10 {
			t.Fatalf("only %d evaluations", evals)
		}
		if ps := plane.Stats(); ps.Computations != 0 || ps.Hits != evals {
			t.Fatalf("plane computed %d neighbourhoods and hit %d of %d evaluations; want 0 and all", ps.Computations, ps.Hits, evals)
		}
	})
}

// TestScoresWindowBitIdentical pins the monitor's incremental scoring path
// — Scores over the engine's published neighbourhood — to a cold Scores,
// bitwise, over random and duplicate-heavy streams (duplicates exercise
// LOF's maxDensity clamp and FastABOD's -Inf sentinel path).
func TestScoresWindowBitIdentical(t *testing.T) {
	for _, shape := range []string{"random", "duplicates"} {
		windowScorerCase(t, "LOF", func() windowDetector { return &LOF{K: 5} }, shape)
		windowScorerCase(t, "KNNDist", func() windowDetector { return &KNNDist{K: 5} }, shape)
		windowScorerCase(t, "FastABOD", func() windowDetector { return &FastABOD{K: 5} }, shape)
	}
}
