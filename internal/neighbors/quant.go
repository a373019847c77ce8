package neighbors

import "math"

// The quantized prefilter is the cheapest candidate-rejection tier, sitting
// BENEATH the landmark tier's band scan and inside the window engine's
// arrival scans. Each indexed view gets per-dimension 8-bit affine codes
// built once from its rows:
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
// A candidate whose bound already exceeds the live heap radius cannot
// enter the k-set and is rejected from its code row alone — sequential
// 8-bit loads and small-integer arithmetic instead of the float kernel's
// 64-bit loads and multiply-adds. The integer sum is quantSqSum, a
// SIMD-width kernel on amd64 (16 code bytes per instruction through the
// saturating-subtract / multiply-add-words path; see quant_kernel_amd64.s)
// with a portable fallback elsewhere; the shared cell width is exactly
// what lets one unweighted integer sum carry the whole bound. Columns
// narrower than the widest spend fewer of their 256 levels, which only
// SOFTENS their term (the bound stays valid); those columns contribute
// proportionally little to real distances, so the sharpness that matters —
// in the wide columns that decide rejections — is the full 8 bits.
//
// Why a rejected candidate can never change the result (the same
// safety-margin style as kernel.go): the reject test multiplies by a
// (1 − quantEps) factor, making the computed bound strictly less than the
// true lower bound — quantEps over-covers, by five orders of magnitude,
// the quantization slop past s/2 (≤ ~256·3ε of a cell, from computing
// (x−lo)/s in floats) and the one rounding of the final product (the
// integer sum itself is exact: quantMaxDims caps it below 2³¹). The exact
// kernel's computed d² exceeds the true square by at most a factor
// (1 ± d·ε), so bound > limit at rejection time implies the exact pass
// would have produced a distance strictly above the radius at that moment
// — and the radius only shrinks, so also above the final k-th distance.
// Ties at the radius are not strict excesses and are never rejected;
// tie-breaking stays inside the shared heap push. Survivors go through the
// unchanged squaredEuclideanWithin kernel against the live radius, so kept
// distances are bit-identical to the unpruned scan at any tile size and
// worker count.
//
// Candidates are scanned in cache-sized tiles (quantTileDefault): the
// branch-free bound pass covers the whole tile's sequential padded byte
// rows first, survivors are collected into a fixed scratch list, and only
// then does the exact kernel run — converting the per-candidate
// data-dependent branch of the old scan into a predictable filter/verify
// pipeline. The tile's radius snapshot is taken at tile entry; the live
// radius only shrinks during the tile, so the snapshot is merely
// conservative (fewer rejections, never a wrong one).
//
// Constant dimensions code to 0 everywhere and contribute nothing to the
// bound — conservative, still exact. Views with non-finite values, a
// non-finite range, a cell width whose square underflows, or more than
// quantMaxDims dimensions refuse to build codes (usable=false) and the
// owning scan falls back to the plain exact path; window arrivals that
// land outside the coded range are marked uncodeable per slot and simply
// never rejected.

const (
	// quantEps is the multiplicative safety margin on the squared code
	// bound; see the derivation above. 1e-9 over-covers the combined float
	// error (≲ 1e-13 relative) by five orders of magnitude while loosening
	// the bound immeasurably.
	quantEps = 1e-9

	// quantLevels is the code alphabet size minus one: codes span [0, 255].
	quantLevels = 255

	// quantTileDefault is the candidate tile of the filter/verify pipeline:
	// 64 padded code rows of a 20d view are 2 KB — comfortably L1-resident
	// alongside the query row and the bound scratch.
	quantTileDefault = 64

	// quantTileMax caps tile sizes so the per-query bound and
	// survivor scratches stay fixed-size cells in the query Scratch.
	quantTileMax = 256

	// quantMaxDims keeps the integer bound sum exact everywhere: one
	// dimension contributes at most 254², so 2¹⁵ dimensions stay under
	// 2³¹ — the headroom the SIMD kernel's 32-bit accumulator lanes need.
	// Wider views (far beyond any view this codebase scores) simply skip
	// the prefilter.
	quantMaxDims = 1 << 15

	// quantMinPoints gates the prefilter by dataset size: below it the
	// code build and per-query tile bookkeeping would not amortise over
	// the handful of candidates an exhaustive scan costs anyway.
	quantMinPoints = 64
)

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
	sqAdj  float64 // s²·(1−quantEps): reject iff float64(sum)·sqAdj > limit
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

// quantSqSumRef is the portable reference of the bound sum
// Σ_j max(0, |a_j − b_j| − 1)² over two padded code rows: the non-amd64
// quantSqSum implementation, and the oracle the fuzz target holds the
// assembly kernel to. Abs and the clamp at zero are mask arithmetic, so
// even the fallback loop has no data-dependent branches. len(a) must be
// the stride; len(b) ≥ len(a).
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
