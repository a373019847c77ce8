package neighbors

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"anex/internal/parallel"
)

// window.go — the incremental sliding-window neighbourhood engine.
//
// A stream monitor evaluating a window of W points every stride of s throws
// away a neighbourhood structure that is (W−s)/W identical to the next
// window's: with the default stride W/4, three quarters of every all-kNN
// computation re-derives lists that could not have changed much. The
// WindowEngine amortises that work across overlapping windows. It keeps one
// reservoir of the k+slack nearest live points per window slot — a
// k-nearest list like every other path's, ordered by (squared distance,
// slot) and built by the same insert (insertNeighbor) — and repairs it
// under point arrival and expiry:
//
//   - An ARRIVAL occupies the slot its expired predecessor vacated (the
//     monitor's ring layout), so slot identity is stable and the engine's
//     slot-indexed lists line up bit-for-bit with a cold rebuild over the
//     ring-ordered window rows. Each arrival's own reservoir is built by
//     one fresh scan through the same early-exit kernel the brute-force
//     index uses.
//   - A SURVIVOR's reservoir drops entries whose slot was re-occupied.
//     What remains is still a prefix of the survivor's true neighbour
//     order restricted to surviving points — any untracked survivor was
//     farther than everything kept — so the slack absorbs expiries without
//     any rescan until fewer than k trusted entries remain.
//   - The s arrivals are then merged into every survivor's reservoir
//     (early-exited against the reservoir's current worst entry, or the
//     suspect boundary below, behind the arrivals' code bounds). Entries
//     that sort beyond the last surviving pre-merge entry are SUSPECT — an
//     untracked old point could outrank them — and are truncated; a
//     reservoir still holding ≥ k trusted entries needs no further work,
//     anything shorter is repaired by one full rescan at k+slack.
//
// The repair invariant — every reservoir is a bit-exact prefix of the
// slot's true (squared distance, slot) neighbour order, at least k long
// whenever k other points exist — makes Neighborhood()'s export
// bit-identical to NewIndex + AllKNNFlat over the same rows at any stride,
// slack, and worker count (pinned by TestWindowEngineBitIdenticalCold).
// Distances are computed by the same kernels in the same accumulation
// order on every path, and (x−y)² is bit-symmetric in IEEE arithmetic, so
// an arrival's scan and a survivor's merge agree on the shared pair.
//
// The monitor publishes that export into the plane (Plane.Publish) under
// the window dataset's key, so the detector's ordinary Scores finds its
// neighbourhood there and every point is scored from it afresh.

// DefaultWindowSlack is the reservoir slack applied when a consumer passes
// a negative slack to NewWindowEngine. Expected expiries per reservoir per
// stride are k·s/W (hypergeometric thinning); 8 absorbs several strides of
// the reference workload (k=15, s=W/4 → 3.75 expected) before a rescan.
const DefaultWindowSlack = 8

// WindowArrival is one point entering the engine: Point replaces the
// current occupant of Slot, or is appended when Slot equals the current
// point count (the growing phase before the monitor's window fills). The
// point slice is shared, not copied; the caller must not mutate it while
// the engine is alive.
type WindowArrival struct {
	Slot  int
	Point []float64
}

// WindowStats counts the engine's activity since construction.
type WindowStats struct {
	// Batches counts Apply calls that carried at least one arrival;
	// Arrivals the points they delivered (each costing one fresh scan).
	Batches, Arrivals int
	// QuantCandidates counts candidates whose 8-bit code bound was
	// evaluated in a tile pass of a fresh scan or a survivor's merge;
	// QuantRejected of those were rejected from codes alone (see
	// quant.go).
	QuantCandidates, QuantRejected int64
	// SurvivorLists counts reservoirs examined for repair (the per-batch
	// survivor count, summed); Rescans of those lost too many trusted
	// entries and were rebuilt by a full scan — the expensive event the
	// slack exists to avoid. RepairFraction is their ratio.
	SurvivorLists, Rescans int
}

// RepairFraction reports the fraction of survivor reservoirs that needed a
// full rescan: Rescans ÷ SurvivorLists, 0 when nothing was examined. The
// deterministic ceiling gate in internal/stream pins it on the reference
// workload.
func (s WindowStats) RepairFraction() float64 {
	if s.SurvivorLists == 0 {
		return 0
	}
	return float64(s.Rescans) / float64(s.SurvivorLists)
}

func (s WindowStats) String() string {
	return fmt.Sprintf("batches %d, arrivals %d, survivor lists %d, rescans %d (repair fraction %.3f), quant rejected %d of %d",
		s.Batches, s.Arrivals, s.SurvivorLists, s.Rescans, s.RepairFraction(), s.QuantRejected, s.QuantCandidates)
}

// WindowEngine maintains per-slot neighbour reservoirs under sliding-window
// point arrival and expiry. Not safe for concurrent use; internal repair
// work is parallelised over the configured worker budget with bit-identical
// results at any count.
type WindowEngine struct {
	k, slack, workers int
	d                 int // fixed by the first arrival
	points            [][]float64
	lists             [][]neighbor // per-slot reservoirs; ids are slots
	stats             WindowStats

	// Per-batch scratch, reused across Apply calls so steady-state strides
	// allocate only the export arrays.
	newSlot  []bool
	replaced []bool
	arrSlots []int32
	scratch  []windowScratch

	// Quantized prefilter state (see quant.go): slot-major code rows,
	// maintained incrementally — arrivals re-encode only their own slot
	// against the frozen code book. An arrival outside the book's range is
	// marked uncodeable (its bit in the slot bitset qbad) and is simply
	// never rejected by the bound; when uncodeable slots exceed a quarter
	// of the window the book is rebuilt from the live points. qp nil means
	// the prefilter is off (qtile false, window too small, or uncodeable
	// data). qtile switches the prefilter on; only in-package tests turn
	// it off.
	qp      *quantParams
	qcodes  []uint8
	qbad    []uint64
	quncode int
	qtile   bool
	// arrCodes holds the batch's arrival code rows contiguously, in
	// arrSlots order, and arrBad the bitset of the uncodeable ones, so
	// each survivor's merge bounds 64 arrivals per kernel call.
	arrCodes []uint8
	arrBad   []uint64
}

// windowScratch is the per-worker repair scratch: the worker's code-bound
// counters, flushed into WindowStats once per batch.
type windowScratch struct {
	qcand, qrej int64
}

// NewWindowEngine returns an engine maintaining reservoirs of k+slack
// entries (k ≥ 1; slack < 0 → DefaultWindowSlack, slack 0 is a legitimate
// "no reservoir" setting that rescans on every prefix expiry). workers
// bounds the goroutines of scan and repair phases; ≤ 1 stays serial.
func NewWindowEngine(k, slack, workers int) *WindowEngine {
	checkK(k)
	if slack < 0 {
		slack = DefaultWindowSlack
	}
	return &WindowEngine{k: k, slack: slack, workers: workers, qtile: true}
}

// K returns the neighbourhood depth the engine maintains.
func (e *WindowEngine) K() int { return e.k }

// Len returns the number of live slots.
func (e *WindowEngine) Len() int { return len(e.points) }

// Stats returns the engine's cumulative activity counters.
func (e *WindowEngine) Stats() WindowStats { return e.stats }

// cap returns the reservoir capacity.
func (e *WindowEngine) cap() int { return e.k + e.slack }

// Apply delivers one batch of arrivals — the stride's worth of points that
// entered since the last evaluation, in push order, at most one per slot
// (the caller keeps only a slot's final occupant when a stride laps the
// window). Expiry is implicit: replacing a slot expires its previous
// occupant everywhere. An error (context cancellation, a malformed batch)
// leaves the engine in an undefined state; the caller must discard it and
// rebuild cold.
func (e *WindowEngine) Apply(ctx context.Context, batch []WindowArrival) error {
	if len(batch) == 0 {
		return nil
	}
	n0 := len(e.points)
	for _, a := range batch {
		if e.d == 0 {
			if len(a.Point) == 0 {
				return fmt.Errorf("neighbors: window arrival at slot %d has no features", a.Slot)
			}
			e.d = len(a.Point)
		}
		if len(a.Point) != e.d {
			return fmt.Errorf("neighbors: window arrival at slot %d has %d features, want %d", a.Slot, len(a.Point), e.d)
		}
		switch {
		case a.Slot == len(e.points):
			e.points = append(e.points, a.Point)
			e.lists = append(e.lists, nil) // an arrival: scanSlot builds it
		case a.Slot >= 0 && a.Slot < len(e.points):
			e.points[a.Slot] = a.Point
		default:
			return fmt.Errorf("neighbors: window arrival slot %d out of range (have %d slots)", a.Slot, len(e.points))
		}
	}
	n := len(e.points)

	// newSlot marks slots whose occupant changed this batch (arrivals);
	// replaced marks the pre-existing slots among them, whose OLD occupant
	// every survivor reservoir must drop.
	e.newSlot = growBool(e.newSlot, n)
	e.replaced = growBool(e.replaced, n)
	e.arrSlots = e.arrSlots[:0]
	for _, a := range batch {
		if !e.newSlot[a.Slot] {
			e.newSlot[a.Slot] = true
			e.arrSlots = append(e.arrSlots, int32(a.Slot))
			if a.Slot < n0 {
				e.replaced[a.Slot] = true
			}
		}
	}
	e.stats.Batches++
	e.stats.Arrivals += len(e.arrSlots)
	replacedCount := 0
	for _, s := range e.arrSlots {
		if int(s) < n0 {
			replacedCount++
		}
	}
	// Other surviving old points any incomplete survivor reservoir may be
	// blind to: everything pre-existing minus the replaced slots minus the
	// owner itself.
	survivorOthers := n0 - replacedCount - 1
	nBefore := n0

	// Refresh the quantized code rows before the parallel phase: arrivals
	// encode serially here so every worker sees a consistent code table.
	e.refreshCodes()
	if e.qp != nil {
		st := e.qp.stride
		e.arrCodes = e.arrCodes[:0]
		e.arrBad = clearBits(e.arrBad, len(e.arrSlots))
		for a, s := range e.arrSlots {
			e.arrCodes = append(e.arrCodes, e.qcodes[int(s)*st:(int(s)+1)*st]...)
			if hasBit(e.qbad, int(s)) {
				setBit(e.arrBad, a)
			}
		}
	}

	shards := parallel.ShardCount(e.workers, n)
	if cap(e.scratch) < shards {
		e.scratch = make([]windowScratch, shards)
	}
	e.scratch = e.scratch[:shards]
	rescans := make([]int, shards)

	err := parallel.ForEachShard(ctx, e.workers, n, func(shard, i int) {
		sc := &e.scratch[shard]
		if e.newSlot[i] {
			// Arrival: one fresh scan builds the reservoir.
			e.lists[i] = e.scanSlot(i, sc, e.lists[i])
			return
		}
		if e.repairSlot(i, nBefore, survivorOthers, sc) {
			rescans[shard]++
		}
	})
	for s := 0; s < shards; s++ {
		e.stats.Rescans += rescans[s]
		sc := &e.scratch[s]
		e.stats.QuantCandidates += sc.qcand
		e.stats.QuantRejected += sc.qrej
		sc.qcand, sc.qrej = 0, 0
	}
	e.stats.SurvivorLists += n - len(e.arrSlots)
	// Reset per-batch marks for the next Apply (cheaper than reallocating,
	// and keeps steady-state strides allocation-free).
	for _, s := range e.arrSlots {
		e.newSlot[s] = false
		e.replaced[s] = false
	}
	return err
}

// repairSlot repairs one survivor reservoir under the batch currently being
// applied (nBefore is the pre-batch live count), reporting whether a full
// rescan was needed. Caller guarantees slot i is not an arrival.
func (e *WindowEngine) repairSlot(i, nBefore, survivorOthers int, sc *windowScratch) (rescanned bool) {
	list := e.lists[i]
	n := len(e.points)
	// complete ⇔ the reservoir held EVERY other pre-batch point, in which
	// case nothing it ever reports can be outranked by an untracked one.
	complete := len(list) == nBefore-1

	// 1) Drop entries whose slot was re-occupied. What survives is exactly
	// the nearest surviving old points among the tracked ones: anything
	// untracked was farther than every kept entry.
	w := 0
	for _, en := range list {
		if e.replaced[en.id] {
			continue
		}
		list[w] = en
		w++
	}
	list = list[:w]
	// The knowledge boundary: entries ordering beyond the farthest kept
	// pre-merge entry might be outranked by an untracked old survivor.
	var boundary neighbor
	haveBoundary := w > 0
	if haveBoundary {
		boundary = list[w-1]
	}

	// 2) Merge the arrivals, early-exited against the reservoir's current
	// worst entry once it is full. When step 3 will truncate the suspect
	// tail, the boundary caps the radius from the start: an arrival
	// ordering beyond it could only be inserted behind every trusted entry
	// and then cut, so skipping it leaves the result unchanged — and with
	// no boundary at all step 3 cuts everything, so nothing is merged.
	truncate := !complete && survivorOthers > 0
	radius := math.Inf(1)
	if truncate {
		radius = boundary.d2
	}
	arrivals := e.arrSlots
	if truncate && !haveBoundary {
		arrivals = nil
	}
	// With codes, the arrivals are bound-tested 64 to a kernel call, each
	// tile at the limit it meets on entry: an arrival whose bound clears
	// that limit would fail the exact kernel's early exit against the live
	// limit too (quant.go), so it is skipped unread. Slot i is no arrival.
	q := e.points[i]
	coded := e.qp != nil && !hasBit(e.qbad, i)
	for base := 0; base < len(arrivals); base += quantTile {
		t := min(quantTile, len(arrivals)-base)
		keep := ^uint64(0) >> (quantTile - t)
		if coded {
			st := e.qp.stride
			keep = e.qp.keepMask(e.qcodes[i*st:(i+1)*st], e.arrCodes, base, t, e.arrBad, min(radius, listRadius(list, e.cap())))
			sc.qcand += int64(t)
			sc.qrej += int64(t - bits.OnesCount64(keep))
		}
		for ; keep != 0; keep &= keep - 1 {
			r := arrivals[base+bits.TrailingZeros64(keep)]
			if d2, within := squaredEuclideanWithin(q, e.points[r], min(radius, listRadius(list, e.cap()))); within {
				list = insertNeighbor(list, d2, r, e.cap())
			}
		}
	}

	// 3) Truncate suspect tail entries (arrivals beyond the boundary),
	// unless the reservoir's knowledge is complete: it held every old
	// point, or no unknown survivor exists to outrank anything.
	if truncate {
		t := len(list)
		if !haveBoundary {
			t = 0
		} else {
			for t > 0 && boundary.less(list[t-1]) {
				t--
			}
		}
		list = list[:t]
	}

	// 4) A reservoir short of k trusted entries is repaired by one full
	// rescan at k+slack — the expensive event the slack bounds.
	need := e.k
	if need > n-1 {
		need = n - 1
	}
	if len(list) < need {
		list = e.scanSlot(i, sc, list)
		rescanned = true
	}
	e.lists[i] = list
	return rescanned
}

// scanSlot rebuilds slot i's reservoir with one exhaustive scan — the
// brute-force index's own loop, behind the code-bound tile pass (scanTiles)
// when the quantized prefilter is live and the owner's own code is valid,
// plain (scanRange) otherwise — straight into out's backing array at the
// reservoir's capacity. Survivors of the bound meet the same live radius,
// so the reservoir is bit-identical either way.
func (e *WindowEngine) scanSlot(i int, sc *windowScratch, out []neighbor) []neighbor {
	out = emptyList(out, e.cap())
	if e.qp != nil && !hasBit(e.qbad, i) {
		out, tested, rejected := scanTiles(e.points, i, e.qp, e.qcodes, e.qbad, nil, out, e.cap())
		sc.qcand += tested
		sc.qrej += rejected
		return out
	}
	return scanRange(e.points, i, 0, len(e.points), out, e.cap())
}

// refreshCodes maintains the quantized code table across a batch: arrivals
// re-encode their own slot against the frozen code book, and the book is
// rebuilt from the live points when the window grew past the gate or too
// many arrivals fell outside the coded range. Runs serially in Apply before
// the parallel repair phase.
func (e *WindowEngine) refreshCodes() {
	n := len(e.points)
	if !e.qtile || n < quantMinPoints {
		e.qp = nil
		return
	}
	if e.qp == nil || len(e.qcodes) != n*e.qp.stride {
		e.rebuildCodes()
		return
	}
	st := e.qp.stride
	for _, s := range e.arrSlots {
		j := int(s)
		if hasBit(e.qbad, j) {
			e.quncode--
			e.qbad[j>>6] &^= 1 << uint(j&63)
		}
		if !e.qp.encode(e.points[j], e.qcodes[j*st:(j+1)*st]) {
			setBit(e.qbad, j)
			e.quncode++
		}
	}
	if e.quncode*4 > n {
		e.rebuildCodes()
	}
}

// rebuildCodes derives a fresh code book from the live window and encodes
// every slot. A window the book refuses (non-finite values, ranges too wide
// to square) turns the prefilter off until a later batch changes the data.
func (e *WindowEngine) rebuildCodes() {
	n := len(e.points)
	qp := newQuantParams(e.points, e.d)
	if !qp.usable {
		e.qp = nil
		return
	}
	st := qp.stride
	if cap(e.qcodes) < n*st {
		e.qcodes = make([]uint8, n*st)
	}
	e.qcodes = e.qcodes[:n*st]
	e.qbad = clearBits(e.qbad, n)
	e.quncode = 0
	for j, p := range e.points {
		if !qp.encode(p, e.qcodes[j*st:(j+1)*st]) {
			setBit(e.qbad, j)
			e.quncode++
		}
	}
	e.qp = qp
}

// Neighborhood exports the maintained structure in the plane's flat layout:
// row-major n×m arrays, m = min(k, n−1), point i's neighbours at
// idx[i*m : (i+1)*m] with Euclidean distances ascending, slot tie-broken —
// bit-identical to AllKNNFlat over a fresh index of the same rows. The
// arrays are freshly allocated: the caller may hand them to the plane
// (Plane.Publish) without copying, and the engine's next Apply cannot
// corrupt them.
func (e *WindowEngine) Neighborhood() (idx []int32, dist []float64, m, stride int) {
	n := len(e.points)
	m = e.k
	if m > n-1 {
		m = n - 1
	}
	if m <= 0 {
		return nil, nil, 0, 0
	}
	idx = make([]int32, n*m)
	dist = make([]float64, n*m)
	for i, list := range e.lists {
		row := i * m
		for t := 0; t < m; t++ {
			idx[row+t] = list[t].id
			dist[row+t] = math.Sqrt(list[t].d2)
		}
	}
	return idx, dist, m, m
}

func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		nb := make([]bool, n)
		copy(nb, b)
		return nb
	}
	b = b[:n]
	return b
}

// clearBits returns a zeroed bitset of n bits, reusing w's backing array
// when it is large enough.
func clearBits(w []uint64, n int) []uint64 {
	words := (n + 63) >> 6
	if cap(w) < words {
		return make([]uint64, words)
	}
	w = w[:words]
	clear(w)
	return w
}

func hasBit(w []uint64, j int) bool { return w[j>>6]>>uint(j&63)&1 != 0 }

func setBit(w []uint64, j int) { w[j>>6] |= 1 << uint(j&63) }
