package explain

import (
	"context"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/detector"
)

// BenchmarkBeamWarm measures Beam's search on a warm score memo: every 2d
// subspace of a 300×20 Gaussian set is already scored, so an iteration is
// the explain request's own work (candidates, memo lookups, Z-scores,
// ranking) with no detector arithmetic. Serial, like one anexd request.
func BenchmarkBeamWarm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, 20)
	for f := range cols {
		cols[f] = make([]float64, 300)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	ds, err := dataset.New("beam-warm", cols, nil)
	if err != nil {
		b.Fatal(err)
	}
	beam := NewBeam(detector.NewCached(detector.NewLOF(detector.DefaultLOFK)))
	ctx := context.Background()
	if _, err := beam.ExplainPoint(ctx, ds, 0, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := beam.ExplainPoint(ctx, ds, i%300, 2); err != nil {
			b.Fatal(err)
		}
	}
}
