package neighbors

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anex/internal/synth"
)

// wideCases are the degenerate-input wide views of the prefilter's
// bit-identicality property: the shapes where a lower bound classically
// goes wrong (duplicates collapse bounds to zero, ties sit exactly on the
// radius, k exceeds the point count). Each must produce neighbour sets
// bit-identical to the unpruned index at any worker count — the companion
// property to TestPlanePrefixSlicingProperty one layer down.
func wideCases() map[string][][]float64 {
	cases := make(map[string][][]float64)

	rng := rand.New(rand.NewSource(7))
	random := make([][]float64, 400)
	for i := range random {
		p := make([]float64, 14)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		random[i] = p
	}
	cases["random-14d"] = random

	// Duplicate-heavy: 60 distinct rows, each repeated 6 times — most
	// candidate distances are exactly zero or exactly repeated, so the
	// boundary tie-break does all the work.
	dup := make([][]float64, 0, 360)
	for i := 0; i < 60; i++ {
		p := make([]float64, 12)
		for j := range p {
			p[j] = rng.Float64() * 3
		}
		for r := 0; r < 6; r++ {
			dup = append(dup, p)
		}
	}
	cases["duplicate-heavy"] = dup

	// Lattice: every coordinate from {0,1,2}, so almost all distances are
	// massively tied and land exactly on the prune radius.
	lattice := make([][]float64, 320)
	for i := range lattice {
		p := make([]float64, 12)
		for j := range p {
			p[j] = float64(rng.Intn(3))
		}
		lattice[i] = p
	}
	cases["lattice-ties"] = lattice

	// All rows identical: every distance is zero; the bound can never
	// fire and the k-set is decided purely by index order.
	same := make([][]float64, 280)
	row := make([]float64, 11)
	for j := range row {
		row[j] = 0.5
	}
	for i := range same {
		same[i] = row
	}
	cases["all-identical"] = same

	return cases
}

// figure9Points regenerates the Figure-9 reference workload at full scale:
// the paper's 1000-point 20d planted-subspace dataset (benchDataset in the
// root bench harness, seed 1), materialised to flat rows.
func figure9Points(t testing.TB) [][]float64 {
	t.Helper()
	ds, _, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "prune-gate",
		TotalDims:           20,
		SubspaceDims:        []int{2, 3},
		N:                   1000,
		OutliersPerSubspace: 5,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.FullView().Points()
}

// TestQuantPrunedBitIdentical pins the quantized prefilter's core contract:
// for every degenerate dataset, row count (around multiples of 4 and 64,
// so the kernel's 4-row groups and 64-row tiles end in every remainder),
// neighbourhood size (including k ≥ n, and so every length of the
// row-by-row fill), and worker count, the brute-force index WITH the code
// bound answers bit-identically to the plain brute-force scan — indices
// and distance bit patterns both. The duplicate/lattice/identical shapes
// are where a lower bound classically goes wrong: distances sit exactly on
// the radius, and a bound that is not strictly conservative flips a
// boundary tie.
func TestQuantPrunedBitIdentical(t *testing.T) {
	ctx := context.Background()
	for name, all := range wideCases() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{64, 65, 66, 67, 127, 128, 130, 193, len(all)} {
				points := all[:n]
				brute := NewBruteForce(points)
				pruned := newBruteForce(points)
				if pruned.codes == nil && name != "all-identical" {
					t.Fatalf("n=%d: no codes built", n)
				}
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
							t.Fatalf("n=%d k=%d w=%d: shape m=%d len=%d, want m=%d len=%d",
								n, k, workers, gotM, len(gotIdx), wantM, len(wantIdx))
						}
						for i := range wantIdx {
							if gotIdx[i] != wantIdx[i] {
								t.Fatalf("n=%d k=%d w=%d: idx[%d]=%d, want %d (point %d slot %d)",
									n, k, workers, i, gotIdx[i], wantIdx[i], i/wantM, i%wantM)
							}
							if math.Float64bits(gotDist[i]) != math.Float64bits(wantDist[i]) {
								t.Fatalf("n=%d k=%d w=%d: dist[%d] bits %x, want %x",
									n, k, workers, i, math.Float64bits(gotDist[i]), math.Float64bits(wantDist[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestQuantSurvivorFractionFigure9 is the check.sh prefilter-effectiveness
// gate: on the Figure-9 reference workload (20d, n=1000, k=15 — the
// widest, most expensive views the detectors score), the code bound must
// reject enough of the scan that at most 15% of the bound-tested
// candidates still reach the exact kernel (measured: 0.114 — the first
// bounded tile, right after the row-by-row fill, tests its rows at a
// loose radius). This is a deterministic property of the data and the
// code book — not a timing assertion — so it cannot flake with host load.
func TestQuantSurvivorFractionFigure9(t *testing.T) {
	points := figure9Points(t)
	ix := newBruteForce(points)
	if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.pruneStats()
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

// TestPruneEffectivenessFigure9 is the check.sh scan-fraction gate on the
// index NewIndex selects for the Figure-9 reference workload: the view is
// too wide for the KD-tree, so it must land on the coded brute-force tier,
// and the prefilter must keep at most 60% of all candidates away from the
// exact distance kernel (measured: 0.128). Like the survivor gate above it
// is deterministic in the data, so it cannot flake with host load.
func TestPruneEffectivenessFigure9(t *testing.T) {
	points := figure9Points(t)
	ix, ok := NewIndex(points).(bruteForce)
	if !ok || ix.codes == nil {
		t.Fatalf("NewIndex did not select the coded brute-force tier for the Figure-9 view (%T)", NewIndex(points))
	}
	if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.pruneStats()
	if st.Candidates == 0 || st.Scanned == st.Candidates {
		t.Fatalf("prefilter did not engage: %+v", st)
	}
	frac := st.ScanFraction()
	t.Logf("figure-9 reference workload: %d candidates, %d scanned, scan fraction %.3f",
		st.Candidates, st.Scanned, frac)
	if frac > 0.6 {
		t.Fatalf("candidate-scan fraction %.3f > 0.6 on the Figure-9 reference workload", frac)
	}
}

// TestQuantDisabledMatchesEnabled pins the no-quant reference path's
// contract: results are bit-identical with the prefilter on and off — the
// prefilter only moves work, never answers.
func TestQuantDisabledMatchesEnabled(t *testing.T) {
	ctx := context.Background()
	points := figure9Points(t)
	off := NewBruteForce(points)
	on := newBruteForce(points)
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
	offStats := off.(bruteForce).pruneStats()
	if off.(bruteForce).codes != nil || offStats.QuantCandidates != 0 || offStats.CodeBytes != 0 {
		t.Fatalf("disabled index built quant state: %+v", offStats)
	}
}

// FuzzQuantBoundSafe fuzzes the prefilter's load-bearing inequality: for
// ANY dataset the code book accepts — random rows, constant columns,
// subnormal and astronomically scaled magnitudes, large offsets — the
// code-derived bound float64(sum)·sqAdj never exceeds the exact squared
// distance of any pair, and the reject-mask kernel every coded scan runs
// agrees exactly with the portable reference on tiles of those code rows
// (checkRejectTile; on amd64 that pins the SSE2 assembly). Everything else
// in the tier (tiling, layouts, counters) only moves work around; these
// two properties are what make a rejection safe.
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
				sum := quantSqSumRef(codes[i*st:(i+1)*st], codes[j*st:(j+1)*st])
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
		// A full tile of the book's code rows (cycling when n < 64)
		// against a seed-chosen query row.
		tile := make([]uint8, quantTile*st)
		for r := 0; r < quantTile; r++ {
			copy(tile[r*st:(r+1)*st], codes[(r%n)*st:])
		}
		qi := rng.Intn(n)
		checkRejectTile(t, codes[qi*st:(qi+1)*st], tile)
	})
}

// checkRejectTile holds quantRejectTile to quantSqSumRef on one tile of
// quantTile code rows (stride len(q)): for every count from 1 to 64, at
// the limits −1, 0 and quantSumMax and at each counted row's own sum s and
// s−1, bit r of the mask must be set iff row r's reference sum exceeds the
// limit, and no bit at or past count may be set.
func checkRejectTile(t testing.TB, q, rows []uint8) {
	t.Helper()
	st := len(q)
	sums := make([]int64, quantTile)
	for r := range sums {
		sums[r] = quantSqSumRef(q, rows[r*st:(r+1)*st])
	}
	for count := 1; count <= quantTile; count++ {
		lims := []int64{-1, 0, quantSumMax}
		for _, s := range sums[:count] {
			lims = append(lims, s, s-1)
		}
		for _, lim := range lims {
			var want uint64
			for r, s := range sums[:count] {
				if s > lim {
					want |= 1 << r
				}
			}
			if got := quantRejectTile(q, rows[:count*st], count, lim); got != want {
				t.Fatalf("stride %d, count %d, lim %d: mask %064b, want %064b", st, count, lim, got, want)
			}
		}
	}
}

// TestQuantRejectTileMatchesRef is the deterministic half of the kernel
// check the fuzz target runs: row widths of one to three 16-byte blocks,
// on both sides of each block edge, every count 1…64 (so every remainder
// of the kernel's 4-row groups), on uniform bytes, on bytes at the 0/255
// extremes (the largest sums) and on near-equal bytes (sums at and around
// the −1 clamp).
func TestQuantRejectTileMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, d := range []int{1, 14, 16, 17, 20, 32, 40} {
		st := quantStride(d)
		for _, shape := range []string{"uniform", "extreme", "near"} {
			buf := make([]uint8, (quantTile+1)*st) // row 0 is the query
			for r := 0; r <= quantTile; r++ {
				for j := 0; j < d; j++ {
					var c int
					switch shape {
					case "uniform":
						c = rng.Intn(256)
					case "extreme":
						c = 255 * rng.Intn(2)
					default:
						c = 100 + rng.Intn(4)
					}
					buf[r*st+j] = uint8(c)
				}
			}
			t.Run(fmt.Sprintf("d=%d/%s", d, shape), func(t *testing.T) {
				checkRejectTile(t, buf[:st], buf[st:])
			})
		}
	}
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
// quantized arrival/rescan path: windows at and above quantMinPoints,
// sized around multiples of 4 and 64 so scans and merges end their
// kernel groups and tiles in every remainder, the shapes where a sloppy
// bound flips boundary ties — all bit-identical to the cold rebuild. (The
// pre-existing parity sweeps run below quantMinPoints and keep the
// unquantized path covered.)
func TestWindowEngineQuantParity(t *testing.T) {
	for _, shape := range []string{"random", "duplicates", "lattice", "identical"} {
		for _, W := range []int{66, 96, 129, 131} {
			t.Run(shape, func(t *testing.T) {
				runWindowEngineParityQuant(t, true, shape, W, 20, 15, 24, 8, 4, 400)
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
	on := runWindowEngineParityQuant(t, true, "random", 2*quantMinPoints, 20, 15, 32, 0, 2, 640)
	if on.QuantCandidates == 0 || on.QuantRejected == 0 {
		t.Fatalf("window prefilter did not engage: %d bound-tested, %d rejected", on.QuantCandidates, on.QuantRejected)
	}
	off := runWindowEngineParityQuant(t, false, "random", 2*quantMinPoints, 20, 15, 32, 0, 2, 640)
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

// TestWindowEngineUncodeableBitsetEdges pins the uncodeable-slot bitset at
// its word edges. After a 192-slot window fills, a tight cluster near the
// top of dimension 0 takes slots 0–40, then uncodeable arrivals land at
// slots 63, 64 and 127 — the last bit of word 0, the first of word 1 and
// the last of word 1 — each one code cell past the book's range and one
// cell from an in-range partner arriving in the same batch. The reservoir
// capacity (k+slack = 23) ends each fresh scan's row-by-row fill at row 23
// or 24, so its tiles start off the word grid and bitsAt reads across the
// 64 and 128 boundaries. Every stride must be bit-identical to a cold
// plain brute-force build; each partner's nearest neighbour must be its
// uncodeable slot, which the kernel alone would reject (the invalid code
// sits 254 cells away), so only the bitset keeps it; and a direct scan of
// every coded slot must bound-test exactly the n−1−(k+slack) rows past
// its fill, the slot's own row left out of the ledger.
func TestWindowEngineUncodeableBitsetEdges(t *testing.T) {
	const (
		W, d, k, stride = 192, 8, 15, 10
		capacity        = k + DefaultWindowSlack
	)
	partnerOf := map[int]int{63: 61, 64: 66, 127: 125}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	eng := NewWindowEngine(k, DefaultWindowSlack, 2)
	window := make([][]float64, W)
	near := func() []float64 {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.05 * rng.NormFloat64()
		}
		return p
	}
	pairBase := map[int][]float64{}
	var batch []WindowArrival
	checked := 0
	for i := 0; i < W+140; i++ {
		slot := i % W
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		if i >= W {
			// Dimension 0 in code cells of the book the batch encodes
			// against (frozen once the window is full).
			cell := func(c float64) float64 { return eng.qp.lo[0] + c*eng.qp.step[0] }
			u, isPartner := slot, false
			for s, ps := range partnerOf {
				if slot == ps {
					u, isPartner = s, true
				}
			}
			_, isUncoded := partnerOf[slot]
			switch {
			case slot <= 40:
				p = near()
				p[0] += cell(245)
			case isPartner || isUncoded:
				if pairBase[u] == nil {
					pairBase[u] = near()
				}
				p = append([]float64(nil), pairBase[u]...)
				p[0] = cell(255)
				if isUncoded {
					p[0] = cell(256)
				}
			}
		}
		window[slot] = p
		batch = append(batch, WindowArrival{Slot: slot, Point: p})
		if (i+1)%stride != 0 {
			continue
		}
		if err := eng.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		live := window[:min(i+1, W)]
		n := len(live)
		gotIdx, gotDist, gotM, _ := eng.Neighborhood()
		wantIdx, wantDist, wantM, err := AllKNNFlat(ctx, NewBruteForce(live), k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gotM != wantM {
			t.Fatalf("i=%d: m=%d want %d", i, gotM, wantM)
		}
		for x := range wantIdx {
			if gotIdx[x] != wantIdx[x] || math.Float64bits(gotDist[x]) != math.Float64bits(wantDist[x]) {
				t.Fatalf("i=%d: point %d neighbour %d: idx %d dist %x, want idx %d dist %x",
					i, x/wantM, x%wantM, gotIdx[x], math.Float64bits(gotDist[x]), wantIdx[x], math.Float64bits(wantDist[x]))
			}
		}
		if eng.qp == nil {
			continue
		}
		for q := 0; q < n; q++ {
			if hasBit(eng.qbad, q) {
				continue
			}
			_, tested, _ := scanTiles(eng.points, q, eng.qp, eng.qcodes, eng.qbad, nil, emptyList(nil, capacity), capacity)
			if want := int64(n - 1 - capacity); tested != want {
				t.Fatalf("i=%d: slot %d bound-tested %d rows, want n−1−capacity = %d", i, q, tested, want)
			}
		}
		for u, p := range partnerOf {
			if i-W < u || i-W >= u+stride || i-W < p {
				continue // the pair's batch is not the one just applied
			}
			if !hasBit(eng.qbad, u) || hasBit(eng.qbad, p) {
				t.Fatalf("i=%d: slot %d uncodeable %v, partner %d uncodeable %v; want true, false",
					i, u, hasBit(eng.qbad, u), p, hasBit(eng.qbad, p))
			}
			if got := eng.lists[p][0].id; got != int32(u) {
				t.Fatalf("i=%d: partner %d's nearest is slot %d, want its uncodeable pair %d", i, p, got, u)
			}
			bare, _, _ := scanTiles(eng.points, p, eng.qp, eng.qcodes, nil, nil, emptyList(nil, capacity), capacity)
			for _, nb := range bare {
				if nb.id == int32(u) {
					t.Fatalf("i=%d: the code bound alone kept uncodeable slot %d for partner %d; the test lost its point", i, u, p)
				}
			}
			checked++
		}
	}
	if checked != len(partnerOf) {
		t.Fatalf("checked %d uncodeable pairs, want %d", checked, len(partnerOf))
	}
}
