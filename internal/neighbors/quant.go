package neighbors

import (
	"math"
	"math/bits"
)

// The quantized prefilter is the candidate-rejection tier of the
// exhaustive scans: the coded brute-force index NewIndex builds for views
// past the KD-tree's reach, and the window engine's arrival scans. Both run
// one candidate loop, scanTiles. Each indexed view gets per-dimension
// 8-bit affine codes built once from its rows:
//
//	code[j] = clamp(round((x[j] − lo[j]) / step[j]), 0, 255)
//
// with per-dimension offsets lo[j] (the column minima) and per-dimension
// scales step[j] that share ONE cell width s — the widest column's range
// divided by 255 — with step[j] = 0 flagging constant columns. Every
// stored value is reconstructible to within half a cell (|x[j] − (lo[j] +
// code[j]·s)| ≤ s/2; float rounding on top is what the safety margin below
// over-covers). Two code rows then yield a GUARANTEED lower bound on the
// true squared distance without touching the float rows: both points sit
// within s/2 of their reconstructions, so per dimension
//
//	|x[j] − y[j]| ≥ (|Δcode_j| − 1) · s
//
// (trivially true when the right side is negative), and summing squares
//
//	Σ_j Δx_j²  ≥  s² · Σ_j max(0, |Δcode_j| − 1)².
//
// A candidate whose bound already exceeds the live list radius cannot
// enter the k-set and is rejected from its code row alone — sequential
// 8-bit loads and small-integer arithmetic instead of the float kernel's
// 64-bit loads and multiply-adds. The integer sums are the work of one
// kernel, quantRejectTile: SSE2 on amd64 (16 code bytes per instruction
// through the saturating-subtract / multiply-add-words path, four rows per
// pass; see quant_kernel_amd64.s) with a portable loop over quantSqSumRef
// elsewhere; the shared cell width is exactly what lets one unweighted
// integer sum carry the whole bound. Columns
// narrower than the widest spend fewer of their 256 levels, which only
// SOFTENS their term (the bound stays valid); those columns contribute
// proportionally little to real distances, so the sharpness that matters —
// in the wide columns that decide rejections — is the full 8 bits.
//
// Why a rejected candidate can never change the result: the reject test,
// float64(sum)·sqAdj > limit with sqAdj = s²·(1 − quantEps), multiplies by
// a (1 − quantEps) factor, making the computed bound strictly less than
// the true lower bound — quantEps over-covers, by five
// orders of magnitude, the quantization slop past s/2 (≤ ~256·3ε of a
// cell, from computing (x−lo)/s in floats) and the one rounding of the
// final product (the integer sum itself is exact: quantMaxDims caps it
// below 2³¹). The exact
// kernel's computed d² exceeds the true square by at most a factor
// (1 ± d·ε), so bound > limit at rejection time implies the exact pass
// would have produced a distance strictly above the radius at that moment
// — and the radius only shrinks, so also above the final k-th distance.
// Ties at the radius are not strict excesses and are never rejected;
// tie-breaking stays inside the shared insert. Survivors go through the
// unchanged squaredEuclideanWithin kernel against the live radius, in the
// same row order as the plain scan, so the list evolves exactly as it
// would unpruned and kept distances are bit-identical at any worker count.
//
// Candidates are tested in tiles of quantTile = 64 rows, the width of the
// kernel's mask. The tile's radius snapshot, taken at tile entry, is
// turned into ONE integer threshold, sumLimit — the largest sum the float
// test keeps, exact because the test is monotone in the integer sum — and
// one kernel call compares every row's sum with it, returning a 64-bit
// reject mask: bit r set iff row r's sum exceeds the threshold, so the
// mask rejects exactly the candidates the float test would. Sums never
// leave the kernel. The scan then walks the survivor bits in row order
// (bits.TrailingZeros64) into the exact kernel. The live radius only
// shrinks during the tile, so the snapshot is merely conservative (fewer
// rejections, never a wrong one).
//
// A bound needs a finite radius, so a list that starts empty is filled
// row by row through the plain scan, and the bounded tiles start from the
// row that fills it. A coded index over a subspace view skips even that by
// seeding: the plane hands it the source's full-space neighbours (the
// seed structure the delta scan reads), each query prefills its list
// with their exact view distances, and the bound fires from the first
// candidate on. The seeds are marked in the query's Scratch and never
// offered twice; a list the seeds cannot fill scans unseeded.
//
// The window engine's survivor merge runs the same mask over the batch's
// arrival code rows, 64 arrivals per call, each tile at the limit it meets
// on entry (the reservoir's radius, capped by its trusted boundary);
// surviving arrivals then meet the live limit in squaredEuclideanWithin,
// so a limit that tightens mid-tile costs only missed rejections.
//
// Constant dimensions code to 0 everywhere and contribute nothing to the
// bound — conservative, still exact. Views with non-finite values, a
// non-finite range, a cell width whose square underflows, or more than
// quantMaxDims dimensions refuse to build codes (usable=false) and the
// owning scan falls back to the plain exact path; window arrivals that
// land outside the coded range are marked uncodeable in a slot bitset,
// OR-ed into every tile's keep mask, and so are never rejected.

const (
	// quantEps is the multiplicative safety margin on the squared code
	// bound; see the derivation above. 1e-9 over-covers the combined float
	// error (≲ 1e-13 relative) by five orders of magnitude while loosening
	// the bound immeasurably.
	quantEps = 1e-9

	// quantLevels is the code alphabet size minus one: codes span [0, 255].
	quantLevels = 255

	// quantTile is the candidate tile of the filter/verify pipeline: the
	// width of quantRejectTile's mask. 64 padded code rows of a 20d view
	// are 2 KB — comfortably L1-resident alongside the query row.
	quantTile = 64

	// quantMaxDims keeps the integer bound sum exact everywhere: one
	// dimension contributes at most 254², so 2¹⁵ dimensions stay under
	// 2³¹ — the headroom the SIMD kernel's 32-bit accumulator lanes need.
	// Wider views (far beyond any view this codebase scores) simply skip
	// the prefilter.
	quantMaxDims = 1 << 15

	// quantSumMax is the largest bound sum a code row pair can reach: every
	// dimension of the widest codeable view at its largest term, 254².
	quantSumMax = quantMaxDims * 254 * 254

	// quantMinPoints gates the prefilter by dataset size: below it the
	// code build and per-query tile bookkeeping would not amortise over
	// the handful of candidates an exhaustive scan costs anyway.
	quantMinPoints = 64
)

// PruneStats is the quantized prefilter's ledger over coded brute-force
// indexes: how many were built, their code storage, and how much of the
// candidate stream the code bound rejected before the exact distance
// kernel ran. A seeded query's seeds are candidates that reached the exact
// kernel without a bound test: they count in Candidates and Scanned, never
// in QuantCandidates, and neither does the query's own row — so
// QuantCandidates ≤ Candidates always.
type PruneStats struct {
	// Indexes counts coded indexes built.
	Indexes int
	// Candidates counts candidate rows their queries considered; Scanned
	// of those reached the exact distance kernel.
	Candidates, Scanned int64
	// CodeBytes is the storage charged to code rows and their
	// per-dimension tables across all builds.
	CodeBytes int64
	// QuantCandidates counts candidates whose code bound was evaluated in
	// a tile pass; QuantRejected of those were rejected from codes alone,
	// without touching their float rows.
	QuantCandidates, QuantRejected int64
}

// ScanFraction reports Scanned / Candidates — the fraction of the
// candidate stream that still paid a distance computation. 1 means the
// bound never fired (or no coded index was built); the Figure-9 reference
// workload is gated at ≤ 0.6 by TestPruneEffectivenessFigure9.
func (s PruneStats) ScanFraction() float64 {
	if s.Candidates == 0 {
		return 1
	}
	return float64(s.Scanned) / float64(s.Candidates)
}

// SurvivorFraction reports the fraction of code-bound evaluations the
// prefilter could NOT reject — the candidates that went on to pay an
// exact kernel call. 1 means the prefilter never fired (or never engaged);
// the Figure-9 reference workload is gated at ≤ 0.15 by
// TestQuantSurvivorFractionFigure9.
func (s PruneStats) SurvivorFraction() float64 {
	if s.QuantCandidates == 0 {
		return 1
	}
	return float64(s.QuantCandidates-s.QuantRejected) / float64(s.QuantCandidates)
}

func (s PruneStats) add(o PruneStats) PruneStats {
	s.Indexes += o.Indexes
	s.Candidates += o.Candidates
	s.Scanned += o.Scanned
	s.CodeBytes += o.CodeBytes
	s.QuantCandidates += o.QuantCandidates
	s.QuantRejected += o.QuantRejected
	return s
}

// quantStride pads a row width to the SIMD kernel's 16-byte block multiple.
func quantStride(d int) int { return (d + 15) &^ 15 }

// quantParams is one view's code book: the per-dimension affine transform
// and the precomputed reject-test constant. Code rows are stored padded to
// stride bytes (pad bytes zero on every row, so they never contribute to a
// difference).
type quantParams struct {
	d      int
	stride int
	lo     []float64 // per-dimension offset (the column minimum)
	step   []float64 // per-dimension scale: the shared cell width s, or 0
	//                  for constant columns
	sqAdj  float64 // s²·(1−quantEps): reject iff sum > sumLimit(limit)
	usable bool
}

// codeBytes reports the storage charge of n padded code rows plus the
// per-dimension tables — the PruneStats.CodeBytes ledger entry for one
// build.
func (qp *quantParams) codeBytes(n int) int64 {
	return int64(n)*int64(qp.stride) + int64(qp.d)*(8+8)
}

// newQuantParams derives the code book from the rows it will encode. A view
// with non-finite values or a range too wide to square refuses to build
// (usable=false); all-constant views do too (every bound would be zero).
func newQuantParams(points [][]float64, d int) *quantParams {
	qp := &quantParams{d: d, stride: quantStride(d)}
	if len(points) == 0 || d == 0 || d > quantMaxDims {
		return qp
	}
	qp.lo = make([]float64, d)
	hi := make([]float64, d)
	copy(qp.lo, points[0][:d])
	copy(hi, points[0][:d])
	for _, p := range points {
		for j, v := range p[:d] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return qp
			}
			if v < qp.lo[j] {
				qp.lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	maxRange := 0.0
	for j := range qp.lo {
		r := hi[j] - qp.lo[j]
		if math.IsInf(r, 0) {
			return qp // range overflows; no usable code space
		}
		if r > maxRange {
			maxRange = r
		}
	}
	s := maxRange / quantLevels
	sq := s * s
	if sq == 0 || math.IsInf(sq, 0) {
		// All columns constant, or the shared cell width's square under- or
		// overflows: every bound would be zero (or garbage). Refuse.
		return qp
	}
	qp.step = make([]float64, d)
	for j := range qp.step {
		if hi[j] > qp.lo[j] {
			qp.step[j] = s
		}
	}
	qp.sqAdj = sq * (1 - quantEps)
	qp.usable = true
	return qp
}

// encode writes p's padded code row into dst (len ≥ stride; pad bytes are
// left untouched and must already be zero), reporting whether every
// dimension landed inside the coded range. A false return means the point
// cannot carry a valid code (it arrived after the book was built and falls
// outside it, or is non-finite) — the caller must never let a bound reject
// it. Rows the book was built from always encode: a column's range is at
// most 255 cells by construction of the shared width.
func (qp *quantParams) encode(p []float64, dst []uint8) bool {
	ok := true
	for j := 0; j < qp.d; j++ {
		step := qp.step[j]
		if step == 0 {
			// Constant dimension: code 0 everywhere, never contributes.
			dst[j] = 0
			continue
		}
		q := (p[j] - qp.lo[j]) / step
		// NaN fails both comparisons, so non-finite values are uncodeable.
		if !(q >= -0.5 && q <= quantLevels+0.5) {
			dst[j] = 0
			ok = false
			continue
		}
		c := int(math.Round(q))
		if c < 0 {
			c = 0
		} else if c > quantLevels {
			c = quantLevels
		}
		dst[j] = uint8(c)
	}
	return ok
}

// sumClears is the reject test for one candidate's bound sum.
func (qp *quantParams) sumClears(sum int64, limit float64) bool {
	return float64(sum)*qp.sqAdj > limit
}

// sumLimit returns the largest bound sum that sumClears(·, limit) keeps,
// so that sumClears(s, limit) == (s > sumLimit(limit)) for every sum s in
// [0, quantSumMax] — every sum a code row pair can produce. sumClears is
// monotone in s (the conversion is exact below 2⁵³ and a product with the
// positive sqAdj preserves order), so the threshold exists; the quotient
// estimates it to within a rounding, and the two confirming walks make it
// exact: it is the last kept sum and its successor clears. −1 means every
// sum clears (a negative limit); quantSumMax means none does (+Inf, NaN, or
// a limit past the largest bound).
func (qp *quantParams) sumLimit(limit float64) int64 {
	t := int64(quantSumMax)
	if f := limit / qp.sqAdj; f < quantSumMax {
		t = int64(max(f, -1))
	}
	for t >= 0 && qp.sumClears(t, limit) {
		t--
	}
	for t < quantSumMax && !qp.sumClears(t+1, limit) {
		t++
	}
	return t
}

// bitsAt returns bits base … base+63 of the bitset w as one word, bit 0
// first; bits past w's end read as zero.
func bitsAt(w []uint64, base int) uint64 {
	k, s := base>>6, uint(base&63)
	v := w[k] >> s
	if s != 0 && k+1 < len(w) {
		v |= w[k+1] << (64 - s)
	}
	return v
}

// keepMask bound-tests the t ≤ quantTile code rows codes[base … base+t)
// against the query's code row qc at a radius snapshot: bit r is set iff
// row base+r must go on to the exact kernel — its bound does not clear
// radius, or uncoded (a bitset over the rows; nil for none) marks its code
// invalid, and an invalid code never rejects.
func (qp *quantParams) keepMask(qc, codes []uint8, base, t int, uncoded []uint64, radius float64) uint64 {
	st := qp.stride
	keep := ^quantRejectTile(qc, codes[base*st:(base+t)*st], t, qp.sumLimit(radius))
	if uncoded != nil {
		keep |= bitsAt(uncoded, base)
	}
	return keep & (^uint64(0) >> (quantTile - t))
}

// scanTiles is the one candidate loop behind the quantized prefilter,
// shared by the coded brute-force index and the window engine's fresh
// scans: it offers every row j ≠ i of rows to the list, as the plain
// early-exit scan would. While the list is short of capacity it has no
// radius to bound with, so rows are offered one by one through the plain
// scan; from the row that fills it on, rows go tile by tile — one
// keepMask call over the tile's padded code rows (codes holds one per
// row, in row order), then squaredEuclideanWithin and the insert for the
// survivor bits only, in row order. uncoded, when non-nil, is a bitset of
// the rows whose code is invalid; such a row is never rejected. seen, when
// non-nil, is a seeded query's record of the rows its full list was
// prefilled from, the query itself included: those rows are not offered
// again. A seeded list arrives full, so every row is bound-tested.
//
// Each tile's radius snapshot is taken at tile entry; the live radius
// only shrinks during the tile, so the snapshot merely under-rejects. It
// returns the list, how many candidates were bound-tested and how many of
// those the bound rejected. The query's own row and the seen rows are
// offered elsewhere and counted in neither: the pass tests them with the
// rest of their tile (a mark check per survivor is cheaper than one per
// candidate), and the ledger takes them out again — the query's row
// always survives (its bound is 0, the radius ≥ 0), and a seeded query
// meets every seen row in a bounded tile.
func scanTiles(rows [][]float64, i int, qp *quantParams, codes []uint8, uncoded []uint64, seen *rowMarks, list []neighbor, capacity int) (out []neighbor, tested, rejected int64) {
	n := len(rows)
	base := 0
	for ; base < n && math.IsInf(listRadius(list, capacity), 1); base++ {
		list = scanRange(rows, i, base, base+1, list, capacity)
	}
	q := rows[i]
	st := qp.stride
	qc := codes[i*st : i*st+st]
	var offered int64 // seen rows, and the query's own, that survived the bound
	for ; base < n; base += quantTile {
		t := min(quantTile, n-base)
		radius := listRadius(list, capacity)
		keep := qp.keepMask(qc, codes, base, t, uncoded, radius)
		tested += int64(t)
		rejected += int64(t - bits.OnesCount64(keep))
		for ; keep != 0; keep &= keep - 1 {
			j := int32(base + bits.TrailingZeros64(keep))
			if int(j) == i || (seen != nil && seen.has(j)) {
				offered++
				continue
			}
			if d2, within := squaredEuclideanWithin(q, rows[j], radius); within {
				list = insertNeighbor(list, d2, j, capacity)
				radius = listRadius(list, capacity)
			}
		}
	}
	if seen == nil {
		return list, tested - offered, rejected
	}
	// seen.count includes the query's own row.
	return list, tested - int64(seen.count), rejected - (int64(seen.count) - offered)
}

// quantSqSumRef is the portable reference of the bound sum
// Σ_j max(0, |a_j − b_j| − 1)² over two padded code rows: the row sum of
// the non-amd64 quantRejectTile, and the oracle the kernel tests and the
// fuzz target hold the assembly to. Abs and the clamp at zero are mask
// arithmetic, so even the fallback loop has no data-dependent branches.
// len(a) must be the stride; len(b) ≥ len(a).
func quantSqSumRef(a, b []uint8) int64 {
	b = b[:len(a)] // bounds-check elimination
	var acc int64
	for j := range a {
		m := int64(a[j]) - int64(b[j])
		mask := m >> 63
		m = (m ^ mask) - mask // |Δcode|
		m--
		m &^= m >> 63 // clamp at zero
		acc += m * m
	}
	return acc
}
