package neighbors

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The landmark tier is a pruned candidate-generation layer over the
// brute-force scan. It targets the regime the KD-tree abandons (views wider
// than kdTreeMaxDim), where every query used to pay an exhaustive O(n·d)
// scan: the paper's Figure-9 20d/n=1000 workloads spend ~28 ms per AllKNN
// there, and ADBench-scale datasets push n past 10^5 where that scan is the
// dominant cost of all three kNN detectors.
//
// The idea is classic metric pruning made bit-exact:
//
//   - At build time, pick nl LANDMARK points by deterministic seeded
//     k-means++-style selection (a seeded first pick, then greedy
//     farthest-point refinement) and precompute every point's Euclidean
//     distance to every landmark — an n×nl matrix costing O(n·nl·d), built
//     exactly once per (dataset, subspace) plane entry.
//   - Points are grouped into one cluster per landmark (each point assigned
//     to its nearest), and the per-(cluster, landmark) intervals of the
//     matrix give a segment-level form of the triangle inequality
//       |d(q,L) − d(x,L)| ≤ d(q,x)   for any landmark L:
//     the query's distance to a cluster's interval under ANY landmark
//     lower-bounds its distance to EVERY member. A cluster whose bound
//     (minus a float-safety margin, see kernel.go) already exceeds the
//     current heap radius cannot contribute to the k-set and is skipped
//     wholesale, in at most nl compares for the entire segment. Everything
//     that survives goes through squaredEuclideanWithin — the SAME exact
//     accumulation, in the same grouping order, against the same live
//     radius as the brute-force scan — so the kept neighbour set is
//     bit-identical to the unpruned index (see the safety argument in
//     kernel.go and DESIGN.md).
//   - Clusters are visited nearest-landmark-first. True neighbours
//     concentrate in the query's own and nearby clusters, so the heap
//     radius is near-final after the first segments; the far clusters —
//     most of the data — then meet a radius small enough to reject them
//     wholesale, and the ones that do get scanned hit the exact kernel's
//     early exit after fewer dimensions.
//
// The visit order and every skip decision are pure functions of the data,
// so results AND PruneStats are deterministic, and per-point queries stay
// independent — bit-identical at any worker count.

const (
	// landmarkMinPoints gates the tier by dataset size: below it the
	// exhaustive scan is already cheap and the O(n·nl·d) matrix build plus
	// per-query bookkeeping would not amortise.
	landmarkMinPoints = 256

	// landmarkMaxAuto caps the automatic landmark count. Cluster granularity
	// is the tier's main pruning lever (rejection is wholesale per segment,
	// plus a band refinement within scanned segments), so the automatic
	// pick targets ~8-point clusters — but each landmark costs O(n·d) at
	// build time, so the count is capped to keep the one-time matrix build
	// a small fraction of a single exhaustive AllKNN.
	landmarkMaxAuto = 128

	// landmarkSeed seeds the first-pick hash of the k-means++-style
	// selection. Fixed, so the same rows always elect the same landmarks.
	landmarkSeed = 0x9E3779B97F4A7C15
)

// PruneStats aggregates the landmark tier's activity: how many indexes
// built landmark structures, what the selection cost, and — the headline —
// how much of the candidate stream the lower bound rejected before the
// distance kernel ran. ScanFraction ≤ 0.6 on the Figure-9 reference
// workload is gated by scripts/check.sh.
type PruneStats struct {
	// Indexes counts landmark indexes built; Landmarks the landmark points
	// selected across them.
	Indexes, Landmarks int
	// BuildTime is the cumulative landmark selection + matrix time.
	BuildTime time.Duration
	// Candidates counts candidate rows considered by pruned queries;
	// Scanned of those reached the exact distance kernel, Skipped were
	// rejected by the triangle-inequality lower bound alone.
	Candidates, Scanned, Skipped int64
	// CodeBytes is the storage charged to quantized code rows and their
	// per-dimension tables across all builds.
	CodeBytes int64
	// QuantCandidates counts candidates whose 8-bit code bound was
	// evaluated in a tile pass; QuantRejected of those were rejected from
	// codes alone, without touching their float rows.
	QuantCandidates, QuantRejected int64
}

// ScanFraction reports Scanned / Candidates — the fraction of the
// candidate stream that still paid a distance computation. 1 means the
// bound never fired (or the tier never engaged); the Figure-9 reference
// workload sits well under the 0.6 gate.
func (s PruneStats) ScanFraction() float64 {
	if s.Candidates == 0 {
		return 1
	}
	return float64(s.Scanned) / float64(s.Candidates)
}

// SurvivorFraction reports the fraction of code-bound evaluations the
// quantized prefilter could NOT reject — the candidates that went on to
// pay an exact kernel call. 1 means the prefilter never fired (or never
// engaged); the Figure-9 reference workload is gated by
// TestQuantSurvivorFractionFigure9.
func (s PruneStats) SurvivorFraction() float64 {
	if s.QuantCandidates == 0 {
		return 1
	}
	return float64(s.QuantCandidates-s.QuantRejected) / float64(s.QuantCandidates)
}

func (s PruneStats) add(o PruneStats) PruneStats {
	s.Indexes += o.Indexes
	s.Landmarks += o.Landmarks
	s.BuildTime += o.BuildTime
	s.Candidates += o.Candidates
	s.Scanned += o.Scanned
	s.Skipped += o.Skipped
	s.CodeBytes += o.CodeBytes
	s.QuantCandidates += o.QuantCandidates
	s.QuantRejected += o.QuantRejected
	return s
}

// landmarkIndex is the pruned-candidate index: a brute-force scan behind an
// n×nl landmark lower-bound prefilter over a flat stride-addressed row
// copy. It implements Index; results are bit-identical to bruteForce on the
// same points.
type landmarkIndex struct {
	points [][]float64
	flat   []float64 // n×d row-major copy, stride d (the kernel's layout)
	n, d   int

	nl    int       // landmark count
	lmIDs []int32   // the selected landmark point indices
	lm    []float64 // n×nl Euclidean point→landmark distances, stride nl

	assign []int32 // point → nearest landmark (ties to the lowest)
	// order groups points by assigned landmark; within a cluster, members
	// are sorted by ascending own-landmark distance (ties to the lowest
	// index). seg holds the nl+1 bounds: cluster c = order[seg[c]:seg[c+1]],
	// and ownDist mirrors order with each member's stored d(x, L_c) — the
	// sorted key the query-time band search runs on.
	order   []int32
	seg     []int32
	ownDist []float64

	// Per-(cluster, landmark) intervals of the stored member→landmark
	// distances: cluster c's members all have d(x,L_l) ∈
	// [segLoT[l*nl+c], segHiT[l*nl+c]]. Wholesale cluster rejection falls
	// out of these nl² intervals: the query's distance-to-interval under
	// any landmark is a lower bound on its distance to every member. The
	// matrix is stored TRANSPOSED (landmark-major) because a query probes
	// one fixed landmark — its own — against every cluster, which is then a
	// single sequential row; the diagonal (cluster c under its own landmark
	// L_c) is additionally mirrored into diagLo/diagHi for the same reason.
	segLoT, segHiT []float64
	diagLo, diagHi []float64

	// Quantized prefilter state (nil qp when off or unusable, see
	// quant.go): qcodes holds the n padded code rows (stride bytes each,
	// see quantStride) in CLUSTER order — row r
	// codes point order[r] — so the band scan's tile pass reads sequential
	// bytes; qpos is the inverse permutation (point → code row), which is
	// how a query finds its own code.
	qp        *quantParams
	qcodes    []uint8
	qpos      []int32
	qtile     int
	codeBytes int64

	buildTime time.Duration

	// Per-index activity; the plane folds these into the owning entry's
	// PruneStats after each computation.
	candidates, scanned, skipped atomic.Int64
	qcand, qrej                  atomic.Int64
}

// newLandmarkIndex builds a pruned-candidate index over the points with
// the given landmark count (≤ 0 → automatic) and quantized-prefilter tile:
// tile 0 builds no codes (the plain band scan, kept as the reference path
// for tests), larger tiles are clamped to quantTileMax. NewIndex applies
// the size/width gates and builds it with an automatic count at
// quantTileDefault. The points are not mutated; the index keeps its own
// flat copy.
func newLandmarkIndex(points [][]float64, landmarks, tile int) Index {
	n := len(points)
	if n < 2 {
		return bruteForce{points: points}
	}
	start := time.Now()
	d := len(points[0])
	lx := &landmarkIndex{points: points, n: n, d: d}
	lx.flat = make([]float64, n*d)
	for i, p := range points {
		copy(lx.flat[i*d:(i+1)*d], p)
	}

	nl := landmarks
	if nl <= 0 {
		nl = n / 8
		if nl > landmarkMaxAuto {
			nl = landmarkMaxAuto
		}
		if nl < 2 {
			nl = 2
		}
	}
	if nl > n {
		nl = n
	}
	lx.nl = nl
	lx.lm = make([]float64, n*nl)
	lx.selectLandmarks()
	lx.buildClusters()
	if tile > 0 && n >= quantMinPoints {
		lx.buildQuant(min(tile, quantTileMax))
	}
	lx.buildTime = time.Since(start)
	return lx
}

// splitmix64 is the seed mixer of the landmark selection: one deterministic
// well-distributed hash, no RNG state to carry.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// selectLandmarks runs the deterministic seeded k-means++-style selection:
// the first landmark is a hash-seeded pick, every later one the point
// farthest from all landmarks chosen so far (greedy k-center refinement,
// ties to the lowest index — the deterministic stand-in for k-means++'s
// D²-weighted sampling). The point→landmark matrix is filled column by
// column as a side effect: each new landmark's distances to all points are
// exactly its matrix column.
func (lx *landmarkIndex) selectLandmarks() {
	n, d, nl := lx.n, lx.d, lx.nl
	lx.lmIDs = make([]int32, nl)
	minD := make([]float64, n) // distance to the nearest chosen landmark
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	next := int(splitmix64(landmarkSeed^uint64(n)<<20^uint64(d)) % uint64(n))
	for c := 0; c < nl; c++ {
		lx.lmIDs[c] = int32(next)
		lrow := lx.flat[next*d : (next+1)*d]
		for p := 0; p < n; p++ {
			dist := math.Sqrt(SquaredEuclidean(lx.flat[p*d:(p+1)*d], lrow))
			lx.lm[p*nl+c] = dist
			if dist < minD[p] {
				minD[p] = dist
			}
		}
		// Farthest point from the chosen set seeds the next round; ties go
		// to the lowest index so duplicate-heavy data stays deterministic.
		best, bestV := 0, math.Inf(-1)
		for p := 0; p < n; p++ {
			if minD[p] > bestV {
				best, bestV = p, minD[p]
			}
		}
		next = best
	}
}

// buildClusters assigns every point to its nearest landmark and lays out
// the segmented visit order (points grouped by assignment, each group
// sorted by own-landmark distance, ties to the lowest index) plus the
// per-(cluster, landmark) distance intervals that drive query-time
// wholesale rejection and the sorted own-distance key of the band search.
func (lx *landmarkIndex) buildClusters() {
	n, nl := lx.n, lx.nl
	lx.assign = make([]int32, n)
	counts := make([]int32, nl+1)
	for p := 0; p < n; p++ {
		row := lx.lm[p*nl : (p+1)*nl]
		best := 0
		for c := 1; c < nl; c++ {
			if row[c] < row[best] {
				best = c
			}
		}
		lx.assign[p] = int32(best)
		counts[best+1]++
	}
	for c := 0; c < nl; c++ {
		counts[c+1] += counts[c]
	}
	lx.seg = counts
	lx.order = make([]int32, n)
	fill := make([]int32, nl)
	copy(fill, counts[:nl])
	for p := 0; p < n; p++ {
		c := lx.assign[p]
		lx.order[fill[c]] = int32(p)
		fill[c]++
	}
	lx.ownDist = make([]float64, n)
	for c := 0; c < nl; c++ {
		seg := lx.order[counts[c]:counts[c+1]]
		sort.Slice(seg, func(a, b int) bool {
			da := lx.lm[int(seg[a])*nl+c]
			db := lx.lm[int(seg[b])*nl+c]
			if da != db {
				return da < db
			}
			return seg[a] < seg[b]
		})
		for r, p := range seg {
			lx.ownDist[int(counts[c])+r] = lx.lm[int(p)*nl+c]
		}
	}
	lx.segLoT = make([]float64, nl*nl)
	lx.segHiT = make([]float64, nl*nl)
	for i := range lx.segLoT {
		lx.segLoT[i] = math.Inf(1)
		lx.segHiT[i] = math.Inf(-1)
	}
	for p := 0; p < n; p++ {
		c := int(lx.assign[p])
		row := lx.lm[p*nl : (p+1)*nl]
		for l, v := range row {
			if v < lx.segLoT[l*nl+c] {
				lx.segLoT[l*nl+c] = v
			}
			if v > lx.segHiT[l*nl+c] {
				lx.segHiT[l*nl+c] = v
			}
		}
	}
	lx.diagLo = make([]float64, nl)
	lx.diagHi = make([]float64, nl)
	for c := 0; c < nl; c++ {
		lx.diagLo[c] = lx.segLoT[c*nl+c]
		lx.diagHi[c] = lx.segHiT[c*nl+c]
	}
}

// buildQuant lays the quantized prefilter over the clustered order: one
// code book for the view, code rows stored in cluster order so the band
// scan's tile pass streams sequential bytes. Views the book refuses
// (non-finite values, ranges too wide to square) leave qp nil and the
// scans take the plain exact path.
func (lx *landmarkIndex) buildQuant(tile int) {
	lx.qtile = tile
	qp := newQuantParams(lx.points, lx.d)
	if !qp.usable {
		return
	}
	st := qp.stride
	codes := make([]uint8, lx.n*st)
	pos := make([]int32, lx.n)
	for r, j := range lx.order {
		pos[j] = int32(r)
		if !qp.encode(lx.points[j], codes[r*st:(r+1)*st]) {
			// Build rows always encode; if one somehow does not, the
			// bound's premise is void — drop the prefilter for this view.
			return
		}
	}
	lx.qp, lx.qcodes, lx.qpos = qp, codes, pos
	lx.codeBytes = qp.codeBytes(lx.n)
}

func (lx *landmarkIndex) Len() int { return lx.n }

// Landmarks returns the selected landmark point indices (diagnostics).
func (lx *landmarkIndex) Landmarks() []int32 {
	return append([]int32(nil), lx.lmIDs...)
}

// PruneStats returns this index's own activity counters.
func (lx *landmarkIndex) PruneStats() PruneStats {
	return PruneStats{
		Indexes:         1,
		Landmarks:       lx.nl,
		BuildTime:       lx.buildTime,
		Candidates:      lx.candidates.Load(),
		Scanned:         lx.scanned.Load(),
		Skipped:         lx.skipped.Load(),
		CodeBytes:       lx.codeBytes,
		QuantCandidates: lx.qcand.Load(),
		QuantRejected:   lx.qrej.Load(),
	}
}

// KNNInto answers like bruteForce.KNNInto — bit for bit — through the
// landmark prefilter: clusters are visited in order of increasing
// query→landmark distance (the query's own cluster is the nearest landmark,
// so it comes first and tightens the heap radius), and every later cluster
// is tested wholesale against the radius before any member distance is
// computed — the farther the cluster, the smaller the radius it meets and
// the likelier its whole segment is rejected. Per-query counters flush
// into the index's totals once at the end.
func (lx *landmarkIndex) KNNInto(i, k int, s *Scratch) ([]int, []float64) {
	checkK(k)
	s.h.reset(k)
	nl := lx.nl
	q := lx.flat[i*lx.d : (i+1)*lx.d]
	qlm := lx.lm[i*nl : (i+1)*nl]
	var pc pruneCounters

	// One pass picks the lbNearClusters nearest landmarks' clusters
	// (ascending distance, ties to the lowest index — the strict compare
	// against an ascending scan keeps the earlier index on ties).
	near := lbNearClusters
	if near > nl {
		near = nl
	}
	var nearC [lbNearClusters]int32
	var nearD [lbNearClusters]float64
	for j := 0; j < near; j++ {
		nearC[j], nearD[j] = -1, math.Inf(1)
	}
	for c := 0; c < nl; c++ {
		dc := qlm[c]
		if dc >= nearD[near-1] {
			continue
		}
		j := near - 1
		for j > 0 && nearD[j-1] > dc {
			nearD[j], nearC[j] = nearD[j-1], nearC[j-1]
			j--
		}
		nearD[j], nearC[j] = dc, int32(c)
	}

	own := int(lx.assign[i])
	ownLo := lx.segLoT[own*nl : (own+1)*nl]
	ownHi := lx.segHiT[own*nl : (own+1)*nl]
	// visit judges one cluster: wholesale rejection by the cluster's own
	// landmark (diagonal interval) or the query's own landmark (one
	// sequential row of the transposed interval matrix), else the band
	// scan. Two compares reject a whole segment.
	visit := func(c int) {
		lo, hi := lx.seg[c], lx.seg[c+1]
		if lo == hi {
			return
		}
		pc.candidates += int64(hi - lo)
		if limit := s.h.top(); !math.IsInf(limit, 1) &&
			(lbIntervalClears(qlm[c], lx.diagLo[c], lx.diagHi[c], limit) ||
				lbIntervalClears(qlm[own], ownLo[c], ownHi[c], limit)) {
			pc.skipped += int64(hi - lo)
			return
		}
		lx.scanCluster(c, i, q, qlm[c], s, &pc)
	}
	for _, c := range nearC[:near] {
		visit(int(c))
	}
	for c := 0; c < nl; c++ {
		isNear := false
		for _, nc := range nearC[:near] {
			if int(nc) == c {
				isNear = true
				break
			}
		}
		if !isNear {
			visit(c)
		}
	}
	// The query's own row rides through the scan (rejected by the qi check,
	// never by a bound — both its bounds are zero); don't count it a
	// candidate. Scanned = candidates the exact kernel actually saw, after
	// both the wholesale/band skips and the code-bound rejections.
	pc.candidates--
	scanned := pc.candidates - pc.skipped - pc.qrej
	lx.candidates.Add(pc.candidates)
	lx.scanned.Add(scanned)
	lx.skipped.Add(pc.skipped)
	lx.qcand.Add(pc.qcand)
	lx.qrej.Add(pc.qrej)
	return s.drain()
}
