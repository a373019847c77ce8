package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"anex/internal/detector"
	"anex/internal/stream"
)

// runStream is the -exp stream arm: one synthetic Gaussian stream pushed
// through two monitors that differ only in Config.NoIncremental. It prints
// the per-arm wall time and their ratio (the self-normalising speedup the
// repo's check.sh gates at ≤ 0.6 via the stream benchmark pair), and fails
// if the two alert streams are not identical — the incremental engine's
// bit-identicality contract, enforced on every benchmark run.
func runStream(ctx context.Context, out, errOut io.Writer, seed int64, window, stride, dim, points, workers int, stats bool) error {
	if window < stream.MinWindowSize {
		return fmt.Errorf("stream window %d too small (need ≥ %d)", window, stream.MinWindowSize)
	}
	if stride < 1 || dim < 1 {
		return fmt.Errorf("stream stride and dim must be positive")
	}
	if points <= 0 {
		points = window + 50*stride
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, points)
	for i := range data {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		data[i] = p
	}

	type armResult struct {
		alerts  []string
		elapsed time.Duration
		evals   int
		st      stream.StreamStats
	}
	arm := func(noInc bool) (armResult, error) {
		det := detector.NewLOF(15)
		det.Workers = workers
		m, err := stream.NewMonitor(stream.Config{
			WindowSize:    window,
			Stride:        stride,
			ZThreshold:    stream.Threshold(3),
			Detector:      det,
			NoIncremental: noInc,
			Workers:       workers,
		})
		if err != nil {
			return armResult{}, err
		}
		defer m.Close()
		var res armResult
		start := time.Now()
		for _, p := range data {
			alerts, err := m.Push(ctx, p)
			if err != nil {
				return armResult{}, err
			}
			for _, a := range alerts {
				res.alerts = append(res.alerts,
					fmt.Sprintf("%d:%x:%x", a.Sequence, math.Float64bits(a.Score), math.Float64bits(a.ZScore)))
			}
		}
		res.elapsed = time.Since(start)
		res.evals = m.Evaluations()
		res.st = m.Stats()
		return res, nil
	}

	rebuild, err := arm(true)
	if err != nil {
		return fmt.Errorf("stream rebuild arm: %w", err)
	}
	inc, err := arm(false)
	if err != nil {
		return fmt.Errorf("stream incremental arm: %w", err)
	}

	if len(inc.alerts) != len(rebuild.alerts) {
		return fmt.Errorf("stream arms diverged: %d incremental alerts vs %d rebuild", len(inc.alerts), len(rebuild.alerts))
	}
	for i := range inc.alerts {
		if inc.alerts[i] != rebuild.alerts[i] {
			return fmt.Errorf("stream arms diverged at alert %d: %s vs %s", i, inc.alerts[i], rebuild.alerts[i])
		}
	}

	ratio := math.NaN()
	if rebuild.elapsed > 0 {
		ratio = float64(inc.elapsed) / float64(rebuild.elapsed)
	}
	fmt.Fprintf(out, "stream workload: %d points, window %d, stride %d, %dd, LOF k=15, workers %d\n",
		points, window, stride, dim, workers)
	fmt.Fprintf(out, "  rebuild:     %10v  (%d evaluations)\n", rebuild.elapsed, rebuild.evals)
	fmt.Fprintf(out, "  incremental: %10v  (%d evaluations, %d alerts, identical to rebuild)\n",
		inc.elapsed, inc.evals, len(inc.alerts))
	fmt.Fprintf(out, "  ratio: %.3f (lower is better; <1 means the incremental engine wins)\n", ratio)
	if stats {
		fmt.Fprintf(errOut, "stream stats: %s\n", inc.st)
	}
	return nil
}
