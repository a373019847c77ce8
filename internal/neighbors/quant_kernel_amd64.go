//go:build amd64

package neighbors

// quantRejectTile returns the reject mask of count ≤ 64 consecutive padded
// code rows (rows, stride len(q) each) against the query row q: bit r is
// set iff row r's bound sum Σ_j max(0, |q_j − row_j| − 1)² exceeds lim,
// which must lie in [−1, quantSumMax] (sumLimit's range). One SSE2 call
// tests the whole tile (quant_kernel_amd64.s).
func quantRejectTile(q, rows []uint8, count int, lim int64) uint64 {
	if count == 0 {
		return 0
	}
	_ = rows[count*len(q)-1]
	return quantRejectTileSSE2(&q[0], &rows[0], len(q)>>4, count, lim)
}

//go:noescape
func quantRejectTileSSE2(q, rows *uint8, blocks, count int, lim int64) uint64
