package neighbors

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestQuantPrunedBitIdentical pins the quantized prefilter's core contract,
// mirroring TestLandmarkPrunedBitIdentical one tier down: for every
// degenerate dataset, tile size (including the degenerate one-candidate
// tile and an over-max value that must clamp), neighbourhood size
// (including k ≥ n), and worker count, the landmark index WITH the code
// bound answers bit-identically to the plain brute-force scan — indices
// and distance bit patterns both. The duplicate/lattice/identical shapes
// are where a lower bound classically goes wrong: distances sit exactly on
// the radius, and a bound that is not strictly conservative flips a
// boundary tie.
func TestQuantPrunedBitIdentical(t *testing.T) {
	ctx := context.Background()
	for name, points := range landmarkCases() {
		t.Run(name, func(t *testing.T) {
			n := len(points)
			brute := NewBruteForce(points)
			for _, tile := range []int{1, 2, 7, 64, 1 << 20} {
				pruned := newLandmarkIndex(points, 0, tile)
				for _, k := range []int{1, 5, 15, n - 1, n + 10} {
					wantIdx, wantDist, wantM, err := AllKNNFlat(ctx, brute, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						gotIdx, gotDist, gotM, err := AllKNNFlat(ctx, pruned, k, workers)
						if err != nil {
							t.Fatal(err)
						}
						if gotM != wantM || len(gotIdx) != len(wantIdx) {
							t.Fatalf("tile=%d k=%d w=%d: shape m=%d len=%d, want m=%d len=%d",
								tile, k, workers, gotM, len(gotIdx), wantM, len(wantIdx))
						}
						for i := range wantIdx {
							if gotIdx[i] != wantIdx[i] {
								t.Fatalf("tile=%d k=%d w=%d: idx[%d]=%d, want %d (point %d slot %d)",
									tile, k, workers, i, gotIdx[i], wantIdx[i], i/wantM, i%wantM)
							}
							if math.Float64bits(gotDist[i]) != math.Float64bits(wantDist[i]) {
								t.Fatalf("tile=%d k=%d w=%d: dist[%d] bits %x, want %x",
									tile, k, workers, i, math.Float64bits(gotDist[i]), math.Float64bits(wantDist[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestQuantSurvivorFractionFigure9 is the check.sh quant-effectiveness
// gate: on the Figure-9 reference workload (20d, n=1000, k=15), the code
// bound must reject enough of the band-scan stream that at most 15% of the
// bound-tested candidates still reach the exact kernel (measured: 3.5%,
// and overall scan fraction falls 0.544 → 0.041). Like the landmark
// scan-fraction gate, this is a deterministic property of the data, the
// seeded selection, and the code book — not a timing assertion — so it
// cannot flake with host load.
func TestQuantSurvivorFractionFigure9(t *testing.T) {
	points := figure9Points(t)
	ix := NewLandmarkIndex(points)
	if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.(interface{ PruneStats() PruneStats }).PruneStats()
	if st.QuantCandidates == 0 || st.QuantRejected == 0 {
		t.Fatalf("quantized prefilter did not engage: %+v", st)
	}
	if st.CodeBytes == 0 {
		t.Fatalf("code storage not charged: %+v", st)
	}
	frac := st.SurvivorFraction()
	t.Logf("figure-9 reference workload: %d bound-tested, %d rejected, survivor fraction %.3f (code bytes %d, scan fraction %.3f)",
		st.QuantCandidates, st.QuantRejected, frac, st.CodeBytes, st.ScanFraction())
	if frac > 0.15 {
		t.Fatalf("quant survivor fraction %.3f > 0.15 on the Figure-9 reference workload", frac)
	}
}

// TestQuantDisabledMatchesEnabled pins the no-quant reference path's
// contract: results are bit-identical with the prefilter on and off — the
// prefilter only moves work, never answers.
func TestQuantDisabledMatchesEnabled(t *testing.T) {
	ctx := context.Background()
	points := figure9Points(t)
	off := newLandmarkIndex(points, 0, 0)
	on := NewLandmarkIndex(points)
	offIdx, offDist, _, err := AllKNNFlat(ctx, off, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	onIdx, onDist, _, err := AllKNNFlat(ctx, on, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range offIdx {
		if onIdx[i] != offIdx[i] || math.Float64bits(onDist[i]) != math.Float64bits(offDist[i]) {
			t.Fatalf("quant on/off disagree at %d: idx %d/%d dist %x/%x",
				i, onIdx[i], offIdx[i], math.Float64bits(onDist[i]), math.Float64bits(offDist[i]))
		}
	}
	offStats := off.(interface{ PruneStats() PruneStats }).PruneStats()
	if offStats.QuantCandidates != 0 || offStats.CodeBytes != 0 {
		t.Fatalf("disabled index built quant state: %+v", offStats)
	}
}

// FuzzQuantBoundSafe fuzzes the prefilter's load-bearing inequality: for
// ANY dataset the code book accepts — random rows, constant columns,
// subnormal and astronomically scaled magnitudes, large offsets — the
// code-derived bound float64(sum)·sqAdj never exceeds the exact squared
// distance of any pair, and the platform bound kernel agrees exactly with
// the portable reference (on amd64 that pins the SSE2 assembly).
// Everything else in the tier (tiling, layouts, counters) only moves work
// around; this inequality is what makes a rejection safe.
func FuzzQuantBoundSafe(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), 0, 0.0)
	f.Add(int64(2), uint8(64), uint8(3), -1074, 1e-300)
	f.Add(int64(3), uint8(32), uint8(20), 900, 1e300)
	f.Add(int64(4), uint8(5), uint8(1), -600, -42.5)
	f.Add(int64(5), uint8(90), uint8(24), 40, 1e9)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw uint8, scaleExp int, off float64) {
		n := int(nRaw)%96 + 2
		d := int(dRaw)%24 + 1
		if scaleExp > 1000 {
			scaleExp = 1000
		} else if scaleExp < -1080 {
			scaleExp = -1080
		}
		scale := math.Ldexp(1, scaleExp)
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, d)
			for j := range p {
				switch rng.Intn(6) {
				case 0:
					p[j] = 0 // duplicate/constant-column pressure
				case 1:
					p[j] = off
				default:
					p[j] = off + rng.NormFloat64()*scale
				}
			}
			points[i] = p
		}
		qp := newQuantParams(points, d)
		if !qp.usable {
			// The book refused (non-finite data, overflowing or vanishing
			// ranges) — the tier never engages, nothing to assert.
			return
		}
		st := qp.stride
		codes := make([]uint8, n*st)
		for i, p := range points {
			if !qp.encode(p, codes[i*st:(i+1)*st]) {
				t.Fatalf("row %d the book was built from failed to encode", i)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				exact := SquaredEuclidean(points[i], points[j])
				sum := quantSqSum(codes[i*st:(i+1)*st], codes[j*st:(j+1)*st])
				ref := quantSqSumRef(codes[i*st:(i+1)*st], codes[j*st:(j+1)*st])
				if sum != ref {
					t.Fatalf("pair (%d,%d): kernel sum %d != reference %d", i, j, sum, ref)
				}
				if sum < 0 {
					t.Fatalf("pair (%d,%d): bound sum overflowed to %d", i, j, sum)
				}
				bound := float64(sum) * qp.sqAdj
				if bound > exact {
					t.Fatalf("pair (%d,%d): code bound %v exceeds exact squared distance %v (sum %d, sqAdj %v)",
						i, j, bound, exact, sum, qp.sqAdj)
				}
			}
		}
	})
}

// TestQuantParamsRefusals pins the code book's refusal edges: data the
// bound cannot cover must yield usable=false, and out-of-range or
// non-finite rows must report uncodeable from encode — the states in which
// callers fall back to the exact path.
func TestQuantParamsRefusals(t *testing.T) {
	if qp := newQuantParams(nil, 4); qp.usable {
		t.Fatal("empty dataset built a usable book")
	}
	if qp := newQuantParams([][]float64{{1, math.NaN()}, {2, 3}}, 2); qp.usable {
		t.Fatal("NaN dataset built a usable book")
	}
	if qp := newQuantParams([][]float64{{1, math.Inf(1)}, {2, 3}}, 2); qp.usable {
		t.Fatal("Inf dataset built a usable book")
	}
	if qp := newQuantParams([][]float64{{-1e308, 0}, {1e308, 0}}, 2); qp.usable {
		t.Fatal("overflowing range built a usable book")
	}
	if qp := newQuantParams([][]float64{{5, 7}, {5, 7}}, 2); qp.usable {
		t.Fatal("all-constant dataset built a usable book")
	}

	qp := newQuantParams([][]float64{{0, 0}, {1, 10}}, 2)
	if !qp.usable {
		t.Fatal("plain dataset refused")
	}
	dst := make([]uint8, quantStride(2))
	// The coded range spans 255 shared cells from each column minimum;
	// dimension 0's value sits far beyond that.
	if qp.encode([]float64{50, 5}, dst) {
		t.Fatal("row outside the coded range reported codeable")
	}
	if qp.encode([]float64{math.NaN(), 5}, dst) {
		t.Fatal("NaN row reported codeable")
	}
	if !qp.encode([]float64{0.5, 10}, dst) {
		t.Fatal("in-range row reported uncodeable")
	}
}

// TestWindowEngineQuantParity extends the window parity property to the
// quantized arrival/rescan path: windows at and above quantMinPoints, the
// shapes where a sloppy bound flips boundary ties, small and default
// tiles — all bit-identical to the cold rebuild. (The pre-existing parity
// sweeps run below quantMinPoints and keep the unquantized path covered.)
func TestWindowEngineQuantParity(t *testing.T) {
	for _, shape := range []string{"random", "duplicates", "lattice", "identical"} {
		for _, tile := range []int{3, quantTileDefault} {
			t.Run(shape, func(t *testing.T) {
				runWindowEngineParityTile(t, tile, shape, 96, 20, 15, 24, 8, 4, 400)
			})
		}
	}
}

// TestWindowEnginePrefilterEngages pins that the window engine's quantized
// prefilter actually runs: on a window at and above quantMinPoints its
// fresh scans must evaluate code bounds and reject some candidates from
// codes alone, while parity with the cold rebuild and with the
// prefilter-off engine holds. A silently disabled prefilter would pass
// every parity sweep; it fails here.
func TestWindowEnginePrefilterEngages(t *testing.T) {
	on := runWindowEngineParityTile(t, quantTileDefault, "random", 2*quantMinPoints, 20, 15, 32, 0, 2, 640)
	if on.QuantCandidates == 0 || on.QuantRejected == 0 {
		t.Fatalf("window prefilter did not engage: %d bound-tested, %d rejected", on.QuantCandidates, on.QuantRejected)
	}
	off := runWindowEngineParityTile(t, 0, "random", 2*quantMinPoints, 20, 15, 32, 0, 2, 640)
	if off.QuantCandidates != 0 || off.QuantRejected != 0 {
		t.Fatalf("prefilter-off engine counted code bounds: %+v", off)
	}
}

// TestWindowEngineQuantRangeDrift drives the uncodeable-arrival machinery:
// a stream whose magnitude grows every stride pushes arrivals outside the
// frozen code book's range, forcing per-slot uncodeable marks and
// eventually book rebuilds, while the parity contract must hold
// throughout. The engine's internals are inspected to prove the drift
// actually exercised those paths.
func TestWindowEngineQuantRangeDrift(t *testing.T) {
	const (
		W, d, k, stride = 80, 16, 10, 20
		total           = 480
	)
	rng := rand.New(rand.NewSource(99))
	eng := NewWindowEngine(k, DefaultWindowSlack, 4)
	window := make([][]float64, 0, W)
	next := 0
	var batch []WindowArrival
	sawUncodeable := false
	for i := 0; i < total; i++ {
		// Magnitude doubles every window's worth of points: arrivals keep
		// escaping the range the current book froze.
		mag := math.Ldexp(1, i/W)
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * mag
		}
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
		if (i+1)%stride != 0 {
			continue
		}
		if err := eng.Apply(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		if eng.quncode > 0 {
			sawUncodeable = true
		}
		gotIdx, gotDist, gotM, _ := eng.Neighborhood()
		wantIdx, wantDist, wantM := coldWindowKNN(t, window, k, 1)
		if gotM != wantM {
			t.Fatalf("eval %d: m=%d want %d", i, gotM, wantM)
		}
		for x := range wantIdx {
			if gotIdx[x] != wantIdx[x] || math.Float64bits(gotDist[x]) != math.Float64bits(wantDist[x]) {
				t.Fatalf("eval %d: mismatch at %d: idx %d/%d dist %x/%x",
					i, x, gotIdx[x], wantIdx[x], math.Float64bits(gotDist[x]), math.Float64bits(wantDist[x]))
			}
		}
	}
	if eng.qp == nil {
		t.Fatal("quant never engaged on the drift stream")
	}
	if !sawUncodeable {
		t.Fatal("drift stream never produced an uncodeable arrival; the test lost its point")
	}
}
