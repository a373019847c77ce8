package neighbors

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// windowStreamCase generates one point of a named stream shape. All shapes
// are deterministic in rng; the pathological ones (duplicate-heavy,
// lattice ties, all-identical) exercise the (distance, slot) tie-breaking
// the bit-identicality contract leans on.
func windowStreamPoint(shape string, rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	switch shape {
	case "random":
		for j := range p {
			p[j] = rng.NormFloat64()
		}
	case "duplicates":
		// Half the stream drawn from 4 exact prototypes.
		if rng.Intn(2) == 0 {
			v := float64(rng.Intn(4))
			for j := range p {
				p[j] = v
			}
		} else {
			for j := range p {
				p[j] = rng.NormFloat64()
			}
		}
	case "lattice":
		// Small integer lattice: masses of exactly-tied distances.
		for j := range p {
			p[j] = float64(rng.Intn(3))
		}
	case "identical":
		for j := range p {
			p[j] = 1
		}
	default:
		panic("unknown shape " + shape)
	}
	return p
}

// coldWindowKNN is the ground truth the engine must match bit for bit: a
// fresh standard index over the same slot-ordered rows, drained flat.
func coldWindowKNN(t *testing.T, points [][]float64, k, workers int) ([]int32, []float64, int) {
	t.Helper()
	idx, dist, m, err := AllKNNFlat(context.Background(), NewIndex(points), k, workers)
	if err != nil {
		t.Fatal(err)
	}
	return idx, dist, m
}

// TestWindowEngineBitIdenticalCold slides windows over adversarial streams
// and requires the engine's export to equal a cold rebuild bit for bit at
// every stride, slack, worker count, and data shape — including the growing
// phase before the window first fills.
func TestWindowEngineBitIdenticalCold(t *testing.T) {
	const (
		W = 48
		k = 7
		d = 6
	)
	shapes := []string{"random", "duplicates", "lattice", "identical"}
	strides := []int{1, W / 4, W - 1}
	slacks := []int{0, 2, 8}
	workerCounts := []int{1, 4}
	for _, shape := range shapes {
		for _, stride := range strides {
			for _, slack := range slacks {
				for _, workers := range workerCounts {
					name := shape + "/stride=" + itoa(stride) + "/slack=" + itoa(slack) + "/w=" + itoa(workers)
					t.Run(name, func(t *testing.T) {
						runWindowEngineParity(t, shape, W, d, k, stride, slack, workers, 6*W)
					})
				}
			}
		}
	}
}

// TestWindowEngineWideViews re-runs the parity sweep at a dimensionality
// above the KD-tree cutoff, where the cold path routes through the coded
// brute-force scan on large windows and the early-exit kernel
// everywhere — the regime the stream reference workload (20d) lives in.
func TestWindowEngineWideViews(t *testing.T) {
	runWindowEngineParity(t, "random", 40, 20, 15, 10, 4, 4, 160)
	runWindowEngineParity(t, "duplicates", 40, 20, 15, 13, 0, 1, 120)
}

// TestWindowEngineTinyWindows exercises n ≤ k+1: every reservoir holds the
// complete point set and expiry repairs must stay exact.
func TestWindowEngineTinyWindows(t *testing.T) {
	runWindowEngineParity(t, "lattice", 5, 3, 7, 1, 0, 1, 40)
	runWindowEngineParity(t, "random", 6, 3, 7, 2, 2, 4, 48)
}

func runWindowEngineParity(t *testing.T, shape string, W, d, k, stride, slack, workers, total int) {
	t.Helper()
	runWindowEngineParityTile(t, quantTileDefault, shape, W, d, k, stride, slack, workers, total)
}

// runWindowEngineParityTile is runWindowEngineParity with the engine's
// prefilter tile pinned (0 turns the prefilter off), returning the engine's
// final counters.
func runWindowEngineParityTile(t *testing.T, tile int, shape string, W, d, k, stride, slack, workers, total int) WindowStats {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(W*1000 + stride*100 + slack*10 + workers)))
	eng := NewWindowEngine(k, slack, workers)
	eng.qtile = tile
	window := make([][]float64, 0, W)
	next := 0
	var batch []WindowArrival
	evals := 0
	for i := 0; i < total; i++ {
		p := windowStreamPoint(shape, rng, d)
		var slot int
		if len(window) < W {
			slot = len(window)
			window = append(window, p)
		} else {
			slot = next
			window[next] = p
			next = (next + 1) % W
		}
		batch = appendArrival(batch, slot, p)
		if len(window) < 2 || (i+1)%stride != 0 {
			continue
		}
		if err := eng.Apply(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		gotIdx, gotDist, gotM, gotStride := eng.Neighborhood()
		wantIdx, wantDist, wantM := coldWindowKNN(t, window, k, workers)
		if gotM != wantM || gotStride != wantM {
			t.Fatalf("eval %d: m=%d stride=%d, want m=%d", evals, gotM, gotStride, wantM)
		}
		for j := range wantIdx {
			if gotIdx[j] != wantIdx[j] {
				t.Fatalf("eval %d (n=%d): idx[%d] = %d, want %d\n got %v\nwant %v",
					evals, len(window), j, gotIdx[j], wantIdx[j], gotIdx, wantIdx)
			}
			if math.Float64bits(gotDist[j]) != math.Float64bits(wantDist[j]) {
				t.Fatalf("eval %d: dist[%d] = %x, want %x", evals, j, math.Float64bits(gotDist[j]), math.Float64bits(wantDist[j]))
			}
		}
		evals++
	}
	if evals == 0 {
		t.Fatal("parity run evaluated nothing")
	}
	st := eng.Stats()
	if st.Arrivals == 0 {
		t.Fatal("engine saw no arrivals")
	}
	t.Logf("%s: %d evals, engine %s", shape, evals, st)
	return st
}

// appendArrival records slot's latest occupant, deduplicating when one
// batch laps the same slot twice (stride > window).
func appendArrival(batch []WindowArrival, slot int, p []float64) []WindowArrival {
	for i := range batch {
		if batch[i].Slot == slot {
			batch[i].Point = p
			return batch
		}
	}
	return append(batch, WindowArrival{Slot: slot, Point: p})
}

// TestWindowEngineStrideBeyondWindow laps the whole window between
// evaluations: every slot is an arrival and survivors do not exist.
func TestWindowEngineStrideBeyondWindow(t *testing.T) {
	runWindowEngineParity(t, "random", 16, 4, 5, 40, 2, 1, 200)
}

// TestWindowEngineApplyValidation pins the malformed-batch errors.
func TestWindowEngineApplyValidation(t *testing.T) {
	eng := NewWindowEngine(3, 0, 1)
	if err := eng.Apply(context.Background(), []WindowArrival{{Slot: 5, Point: []float64{1}}}); err == nil {
		t.Error("out-of-range slot should fail")
	}
	eng = NewWindowEngine(3, 0, 1)
	if err := eng.Apply(context.Background(), []WindowArrival{{Slot: 0, Point: nil}}); err == nil {
		t.Error("empty point should fail")
	}
	eng = NewWindowEngine(3, 0, 1)
	if err := eng.Apply(context.Background(), []WindowArrival{{Slot: 0, Point: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(context.Background(), []WindowArrival{{Slot: 1, Point: []float64{1, 2, 3}}}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

// TestPlanePublishServesWithoutComputation pins Publish: an installed entry
// answers queries at any k' ≤ k without a computation, prefix-sliced, and
// dies with Forget like any other entry.
func TestPlanePublishServesWithoutComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d, k = 60, 5, 9
	points := make([][]float64, n)
	for i := range points {
		points[i] = windowStreamPoint("random", rng, d)
	}
	src := newTestSource(t, "published", points)
	// Ground truth through a private cold build.
	wantIdx, wantDist, m, err := AllKNNFlat(context.Background(), NewIndex(points), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlane(0)
	p.Publish(src, k, m, wantIdx, wantDist)
	for _, kq := range []int{1, 4, k} {
		idx, dist, mq, stride, ok, err := p.AllKNN(context.Background(), src, kq, 1)
		if err != nil || !ok {
			t.Fatalf("k=%d: ok=%v err=%v", kq, ok, err)
		}
		if mq != kq || stride != m {
			t.Fatalf("k=%d: m=%d stride=%d, want m=%d stride=%d", kq, mq, stride, kq, m)
		}
		for i := 0; i < n; i++ {
			for tpos := 0; tpos < mq; tpos++ {
				if idx[i*stride+tpos] != wantIdx[i*m+tpos] {
					t.Fatalf("k=%d: row %d mismatch", kq, i)
				}
				if math.Float64bits(dist[i*stride+tpos]) != math.Float64bits(wantDist[i*m+tpos]) {
					t.Fatalf("k=%d: row %d distance bits mismatch", kq, i)
				}
			}
		}
	}
	st := p.Stats()
	if st.Computations != 0 {
		t.Errorf("published entry still computed %d times", st.Computations)
	}
	if st.Publishes != 1 || st.Hits != 3 {
		t.Errorf("publishes %d hits %d, want 1 and 3", st.Publishes, st.Hits)
	}
	p.Forget(src.SourceKey())
	if got := p.Stats().Entries; got != 0 {
		t.Errorf("%d entries resident after Forget", got)
	}
}

// windowTestSource is a minimal in-package ColumnSource/RowSource over
// row-major points, for exercising Publish without dataset plumbing.
type windowTestSource struct {
	name   string
	points [][]float64
	cols   [][]float64
}

func newTestSource(t *testing.T, name string, points [][]float64) *windowTestSource {
	t.Helper()
	d := len(points[0])
	cols := make([][]float64, d)
	for j := range cols {
		col := make([]float64, len(points))
		for i, p := range points {
			col[i] = p[j]
		}
		cols[j] = col
	}
	return &windowTestSource{name: name, points: points, cols: cols}
}

func (s *windowTestSource) N() int                       { return len(s.points) }
func (s *windowTestSource) Dim() int                     { return len(s.cols) }
func (s *windowTestSource) Column(j int) []float64       { return s.cols[j] }
func (s *windowTestSource) Feature(j int) int            { return j }
func (s *windowTestSource) NumFeatures() int             { return len(s.cols) }
func (s *windowTestSource) SourceColumn(f int) []float64 { return s.cols[f] }
func (s *windowTestSource) SourceKey() string            { return s.name }
func (s *windowTestSource) SubspaceKey() string          { return "full" }
func (s *windowTestSource) Points() [][]float64          { return s.points }
