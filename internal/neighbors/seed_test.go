package neighbors

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"anex/internal/synth"
)

// seedSource transposes rows into the column-major layout benchView reads.
func seedSource(rows [][]float64) [][]float64 {
	cols := make([][]float64, len(rows[0]))
	for f := range cols {
		cols[f] = make([]float64, len(rows))
		for i, p := range rows {
			cols[f][i] = p[f]
		}
	}
	return cols
}

// randomFeats draws a sorted subset of size d from features [0, of).
func randomFeats(rng *rand.Rand, of, d int) []int {
	feats := rng.Perm(of)[:d]
	sort.Ints(feats)
	return feats
}

// checkPlaneEqualsPlain asserts the plane's answer for v is bit-identical
// to the plain brute-force scan over the view's rows.
func checkPlaneEqualsPlain(t *testing.T, p *Plane, v ColumnSource, k, workers int) {
	t.Helper()
	ctx := context.Background()
	gotIdx, gotDist, m, stride, ok, err := p.AllKNN(ctx, v, k, workers)
	if err != nil || !ok {
		t.Fatalf("view %s: ok=%v err=%v", v.CacheKey(), ok, err)
	}
	wantIdx, wantDist, wantM, err := AllKNNFlat(ctx, NewBruteForce(sourceRows(v)), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != wantM {
		t.Fatalf("view %s k=%d: m=%d, want %d", v.CacheKey(), k, m, wantM)
	}
	for i := 0; i < v.N(); i++ {
		for s := 0; s < m; s++ {
			g, w := gotIdx[i*stride+s], wantIdx[i*m+s]
			gd, wd := gotDist[i*stride+s], wantDist[i*m+s]
			if g != w || math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("view %s k=%d w=%d point %d slot %d: (%d, %x), want (%d, %x)",
					v.CacheKey(), k, workers, i, s, g, math.Float64bits(gd), w, math.Float64bits(wd))
			}
		}
	}
}

// TestSeededCodedScanBitIdentical pins the seeded coded scan: views of
// 11–18 of a 20d source's dimensions, wide enough for the coded
// brute-force tier, start each query from the source's full-space
// neighbours, and the plane's answer must equal the plain brute-force
// scan bit for bit at any worker count. The shapes are the ones where a
// prefilled list classically goes wrong: duplicates (seeds at distance 0
// that the scan must not offer twice), a lattice (seed distances tied with
// scanned ones at the radius), a NaN outside the views (the full-space
// list of the NaN row comes back short, so that query starts unfilled and
// scans unseeded), distances that overflow to +Inf (a full seed list
// whose radius bounds nothing), and k ≥ n−1 (every other row a seed, or too few to fill
// the list). Wherever the scans are seeded they must also send strictly
// fewer candidates to the exact kernel than the same views answered
// unseeded. The NaN source also drives a 5d view through the delta
// path's seeded scan, which reads the same short list.
func TestSeededCodedScanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 20

	dup := make([][]float64, 0, 320)
	for i := 0; i < 80; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 3
		}
		for r := 0; r < 4; r++ {
			dup = append(dup, p)
		}
	}
	lattice := make([][]float64, 300)
	for i := range lattice {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(rng.Intn(3))
		}
		lattice[i] = p
	}
	nan := make([][]float64, 200)
	for i := range nan {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		nan[i] = p
	}
	// Row 3 sits next to row 0 and has a NaN outside the views: its
	// full-space list comes back empty, zero-filled, so every one of its
	// seeds names row 0, a true neighbour that must be offered once.
	for j := range nan[3] {
		nan[3][j] = nan[0][j] + 0.01*rng.NormFloat64()
	}
	nan[3][d-1] = math.NaN()
	// Coordinates near 1e154 still code (the cell width's square is
	// finite) but many squared distances overflow to +Inf, so a full seed
	// list can have an infinite radius that bounds nothing.
	huge := make([][]float64, 150)
	for i := range huge {
		p := make([]float64, d)
		for j := range p {
			p[j] = 3e153 * rng.NormFloat64()
		}
		huge[i] = p
	}
	small := make([][]float64, 70)
	for i := range small {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		small[i] = p
	}

	cases := []struct {
		name string
		rows [][]float64
		of   int // views draw their features from [0, of)
		ks   []int
	}{
		{"duplicate-heavy", dup, d, []int{1, 15}},
		{"lattice-ties", lattice, d, []int{15}},
		{"nan-outside-view", nan, d - 1, []int{15}},
		{"overflowing-distances", huge, d, []int{15}},
		{"k-at-least-n-1", small, d, []int{len(small) - 1, len(small) + 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols := seedSource(tc.rows)
			views := []benchView{
				{cols, randomFeats(rng, tc.of, 11)},
				{cols, randomFeats(rng, tc.of, 14)},
				{cols, randomFeats(rng, tc.of, 18)},
			}
			for _, k := range tc.ks {
				for _, workers := range []int{1, 3} {
					p := NewPlane(0)
					for _, v := range views {
						checkPlaneEqualsPlain(t, p, v, k, workers)
					}
					st := p.Stats()
					if st.Prune.Indexes != len(views) {
						t.Fatalf("k=%d: %d coded indexes, want %d: %+v", k, st.Prune.Indexes, len(views), st.Prune)
					}
					if st.Prune.QuantCandidates > st.Prune.Candidates {
						t.Fatalf("k=%d: %d bound-tested > %d candidates", k, st.Prune.QuantCandidates, st.Prune.Candidates)
					}
					// A seeded query's list is full, its radius a bound, before
					// the first candidate; an unseeded one pays its first k
					// rows and scans on a looser radius until the list
					// tightens.
					if seeded := k < len(tc.rows)-1 && tc.name != "overflowing-distances"; seeded {
						var unseeded int64
						for _, v := range views {
							bf := newBruteForce(sourceRows(v))
							if _, _, _, err := AllKNNFlat(context.Background(), bf, k, workers); err != nil {
								t.Fatal(err)
							}
							unseeded += bf.pruneStats().Scanned
						}
						if st.Prune.Scanned >= unseeded {
							t.Fatalf("k=%d: %d exact-kernel calls, %d unseeded: the scans were not seeded", k, st.Prune.Scanned, unseeded)
						}
					}
				}
			}
		})
	}

	t.Run("delta-nan-outside-view", func(t *testing.T) {
		cols := seedSource(nan)
		for _, workers := range []int{1, 3} {
			p := NewPlane(0)
			checkPlaneEqualsPlain(t, p, benchView{cols, []int{0, 4, 7, 12, 16}}, 15, workers)
			if st := p.Stats().Delta; st.FullSeeded != 1 {
				t.Fatalf("5d view did not take the delta engine's seeded scan: %+v", st)
			}
		}
	})
}

// TestSumLimitProperty pins the integer reject threshold against the float
// test it replaces: sumClears(s, limit) == (s > sumLimit(limit)) at the
// threshold T and its neighbours T−1, T+1, T+2 (those inside the range a
// bound sum can take), for random positive cell-width squares and limits
// spanning 0, subnormals, exact products s·sqAdj and their float
// neighbours, huge values and +Inf.
func TestSumLimitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(qp *quantParams, limit float64) {
		t.Helper()
		T := qp.sumLimit(limit)
		if T < -1 || T > quantSumMax {
			t.Fatalf("sqAdj=%g limit=%g: threshold %d outside [-1, %d]", qp.sqAdj, limit, T, quantSumMax)
		}
		for s := T - 1; s <= T+2; s++ {
			if s < 0 || s > quantSumMax {
				continue
			}
			if got, want := qp.sumClears(s, limit), s > T; got != want {
				t.Fatalf("sqAdj=%g limit=%g T=%d: sumClears(%d)=%v, want %v", qp.sqAdj, limit, T, s, got, want)
			}
		}
	}
	for trial := 0; trial < 20000; trial++ {
		qp := &quantParams{sqAdj: math.Ldexp(1+rng.Float64(), rng.Intn(1100)-1070)}
		s0 := rng.Int63n(quantSumMax + 1)
		exact := float64(s0) * qp.sqAdj
		for _, limit := range []float64{
			0, math.SmallestNonzeroFloat64, 0x1p-1030 * rng.Float64(),
			exact, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1)),
			exact * rng.Float64(), -exact,
			math.MaxFloat64, math.Ldexp(rng.Float64(), 1000), math.Inf(1),
		} {
			check(qp, limit)
		}
	}
}

// refOutPool is the RefOut pool workload at paper scale on serve_20d's
// tenant shape: a 1000 × 20 planted-subspace source (five 2d subspaces,
// eight outliers each) and 40 random projections of 14 of its 20 dims,
// the width RefOut's 70 % pool draws. Every view is too wide for the
// KD-tree and too wide for the delta engine, so each lands on the coded
// brute-force tier.
func refOutPool(t testing.TB) (cols [][]float64, views []benchView) {
	t.Helper()
	ds, _, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name: "refout-pool", TotalDims: 20, SubspaceDims: []int{2, 2, 2, 2, 2},
		N: 1000, OutliersPerSubspace: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cols = seedSource(ds.FullView().Points())
	rng := rand.New(rand.NewSource(1))
	views = make([]benchView, 40)
	for v := range views {
		views[v] = benchView{cols, randomFeats(rng, 20, 14)}
	}
	return cols, views
}

// TestRefOutPoolScanGate is the seeded tier's structural gate: over the
// RefOut pool workload at k = 15, queries must average at most 40 exact
// kernel calls (seeds plus bound survivors) out of their 999 candidates —
// an unseeded coded scan pays ~126, and the seeded one measured 33.4.
// The ledger must also stay honest: a query's own row and its seeds are
// never counted as bound-tested, so QuantCandidates cannot exceed
// Candidates.
// Deterministic in the data and the code book, so it cannot flake with
// host load.
func TestRefOutPoolScanGate(t *testing.T) {
	_, views := refOutPool(t)
	p := NewPlane(0)
	for _, v := range views {
		if _, _, _, _, ok, err := p.AllKNN(context.Background(), v, 15, 1); err != nil || !ok {
			t.Fatalf("view %v: ok=%v err=%v", v.feats, ok, err)
		}
	}
	st := p.Stats().Prune
	if st.Indexes != len(views) {
		t.Fatalf("%d coded indexes, want %d: %+v", st.Indexes, len(views), st)
	}
	queries := st.Candidates / int64(views[0].N()-1)
	perQuery := float64(st.Scanned) / float64(queries)
	t.Logf("RefOut pool: %d queries, %.1f exact-kernel calls per query, scan fraction %.3f, survivor fraction %.3f (%d bound-tested of %d candidates)",
		queries, perQuery, st.ScanFraction(), st.SurvivorFraction(), st.QuantCandidates, st.Candidates)
	if perQuery > 40 {
		t.Fatalf("%.1f exact-kernel calls per query > 40 on the RefOut pool", perQuery)
	}
	if st.QuantCandidates > st.Candidates {
		t.Fatalf("ledger counts %d bound-tested candidates > %d candidates", st.QuantCandidates, st.Candidates)
	}
}

// TestRowMarksWrapAround pins the mark generation's wrap-around: a mark
// left 2³² generations back must not read as current, and the array grows
// to a larger index's row count without losing that guarantee.
func TestRowMarksWrapAround(t *testing.T) {
	var m rowMarks
	m.next(8)
	m.set(5)
	m.gen = math.MaxUint32 // the next generation wraps
	m.set(2)
	m.next(8)
	if m.gen == 0 {
		t.Fatal("generation wrapped to 0, the value of unmarked rows")
	}
	for j := int32(0); j < 8; j++ {
		if m.has(j) {
			t.Fatalf("row %d carries a stale mark after the wrap", j)
		}
	}
	if !m.set(1) || m.set(1) || m.count != 1 {
		t.Fatalf("set on a fresh generation: count %d, want 1 after a repeat", m.count)
	}
	m.next(16)
	if len(m.mark) != 16 || m.count != 0 {
		t.Fatalf("marks sized %d with count %d, want 16 and 0", len(m.mark), m.count)
	}
	for j := int32(0); j < 16; j++ {
		if m.has(j) {
			t.Fatalf("row %d marked in a fresh generation", j)
		}
	}
}
