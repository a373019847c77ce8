//go:build amd64

package neighbors

// quantSqSum computes the code-bound sum Σ_j max(0, |a_j − b_j| − 1)² over
// two padded code rows via the SSE2 kernel (baseline on amd64): 16 bytes
// per step through saturating subtracts, a byte-to-word unpack, and the
// multiply-add-words accumulator. len(a) must be the stride (a multiple of
// 16); len(b) ≥ len(a). quantMaxDims keeps every 32-bit accumulator lane —
// and the total — exact.
func quantSqSum(a, b []uint8) int64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	return quantSqSumSSE2(&a[0], &b[0], len(a)>>4)
}

//go:noescape
func quantSqSumSSE2(a, b *uint8, blocks int) int64

// quantSqSumTile computes the bound sums of count consecutive padded code
// rows (rows, stride len(q) each) against the query row q into
// out[0:count], one assembly call for the whole tile rather than one per
// candidate.
func quantSqSumTile(q, rows []uint8, count int, out []int64) {
	if count == 0 {
		return
	}
	_ = rows[count*len(q)-1]
	_ = out[count-1]
	quantSqSumTileSSE2(&q[0], &rows[0], len(q)>>4, count, &out[0])
}

//go:noescape
func quantSqSumTileSSE2(q, rows *uint8, blocks, count int, out *int64)
