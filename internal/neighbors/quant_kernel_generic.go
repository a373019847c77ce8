//go:build !amd64

package neighbors

// quantRejectTile returns the reject mask of count ≤ 64 consecutive padded
// code rows (rows, stride len(q) each) against the query row q: bit r is
// set iff row r's bound sum exceeds lim. Platforms without the SSE2 kernel
// take the portable loop.
func quantRejectTile(q, rows []uint8, count int, lim int64) uint64 {
	st := len(q)
	var mask uint64
	for r := 0; r < count; r++ {
		if quantSqSumRef(q, rows[r*st:(r+1)*st]) > lim {
			mask |= 1 << r
		}
	}
	return mask
}
