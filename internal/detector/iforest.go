package detector

import (
	"context"
	"math"
	"math/rand"

	"anex/internal/dataset"
	"anex/internal/parallel"
)

// Isolation Forest hyper-parameters used throughout the paper's experiments
// (Section 3.1).
const (
	DefaultIForestTrees       = 100
	DefaultIForestSubsample   = 256
	DefaultIForestRepetitions = 10
)

// IsolationForest is the isolation-based detector of Liu et al. (ICDM 2008).
// A forest of random trees partitions subsamples of the data by uniformly
// chosen features and split values; points isolated by short paths score
// close to 1 and inliers close to 0 via s(x) = 2^(−E(h(x))/c(ψ)).
//
// The paper runs iForest for 10 repetitions per subspace and averages the
// scores to reduce variance; Repetitions reproduces that protocol.
type IsolationForest struct {
	// Trees is the number of trees per forest; zero means 100.
	Trees int
	// Subsample is the per-tree sample size ψ; zero means 256.
	Subsample int
	// Repetitions is the number of independent forests whose scores are
	// averaged; zero means 10. Set to 1 for a single forest.
	Repetitions int
	// Seed makes scoring deterministic. Each (subspace, repetition) pair
	// derives its own stream from it, so scores are reproducible
	// regardless of evaluation order.
	Seed int64
	// Workers bounds the goroutines of the per-point path-length scoring
	// loop (the tree traversals that dominate forest cost); values ≤ 1
	// (including the zero value) keep scoring serial. Forest construction
	// stays sequential so the RNG stream — and therefore every score — is
	// bit-identical at any worker count.
	Workers int
}

// NewIsolationForest returns an Isolation Forest with the paper's settings
// (100 trees, subsample 256, 10 repetitions) and the given seed.
func NewIsolationForest(seed int64) *IsolationForest {
	return &IsolationForest{Seed: seed}
}

func (f *IsolationForest) Name() string { return "iForest" }

func (f *IsolationForest) trees() int {
	if f.Trees <= 0 {
		return DefaultIForestTrees
	}
	return f.Trees
}

func (f *IsolationForest) subsample() int {
	if f.Subsample <= 0 {
		return DefaultIForestSubsample
	}
	return f.Subsample
}

func (f *IsolationForest) repetitions() int {
	if f.Repetitions <= 0 {
		return DefaultIForestRepetitions
	}
	return f.Repetitions
}

// Scores computes the averaged isolation score of every point of the view,
// observing ctx between repetitions and between scored points.
func (f *IsolationForest) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	if err := checkView("iForest", v); err != nil {
		return nil, err
	}
	n := v.N()
	psi := f.subsample()
	if psi > n {
		psi = n
	}
	reps := f.repetitions()
	scores := make([]float64, n)
	// Derive a per-view stream so scores do not depend on the order in
	// which subspaces are evaluated.
	base := f.Seed ^ hashString(v.Dataset().Name()+"|"+v.Subspace().Key())
	// One builder's worth of flat buffers serves every repetition: the node
	// arena, the sample permutation, and the partition spill are all sized
	// once, so a whole forest build performs no per-node allocations.
	b := newForestBuilder(v, f.trees(), psi)
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(base + int64(r)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
		forest := b.buildForest(rng)
		c := averagePathLength(float64(psi))
		// Each point's traversal of the (now immutable) forest is
		// independent and accumulates into its own slot, in the same
		// repetition order as the serial loop — bit-identical output.
		err := parallel.ForEach(ctx, f.Workers, n, func(i int) {
			var sum float64
			x := b.rows[i]
			for _, t := range forest {
				sum += t.pathLength(x)
			}
			e := sum / float64(len(forest))
			scores[i] += math.Pow(2, -e/c)
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range scores {
		scores[i] /= float64(reps)
	}
	return scores, nil
}

// hashString is FNV-1a folded to int64, used to derive per-subspace seeds.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// iTree is one isolation tree stored as a flat node array.
type iTree struct {
	nodes []iNode
}

type iNode struct {
	// Interior: feature ≥ 0 splits at split into children left and right.
	// Leaf: feature == -1, and split holds the leaf's finished path term
	// depth + c(size) (see leaf), so a traversal does no arithmetic there.
	split       float64
	feature     int32
	left, right int32
}

// leaf returns the leaf node at the given depth over size training points.
func leaf(depth, size int) iNode {
	return iNode{feature: -1, split: float64(depth) + averagePathLength(float64(size))}
}

// forestBuilder owns the flat buffers a forest build works in: one node
// arena shared by every tree, the Fisher–Yates permutation array, the
// per-tree working index set, and the partition spill. All of them are sized
// once at construction — trees with ≤ ψ training points never exceed 2ψ−1
// nodes, so the arena cap is exact — which makes a whole forest build (and
// every later repetition reusing the builder) free of per-node allocations.
//
// The builder replays exactly the allocation-heavy recursion it replaced:
// the RNG is consulted at the same call sites in the same order, the
// partition is stable on both sides, and leaf conditions are unchanged, so
// the produced forests — and therefore the scores — are bit-identical.
type forestBuilder struct {
	v *dataset.View
	// rows are the view's points, fetched once for the build and the
	// traversals.
	rows        [][]float64
	trees       int
	psi         int
	heightLimit int
	// arena backs every tree's nodes; tree t's slice is a sub-slice with
	// node ids local to its own base, so pathLength still walks from 0.
	arena  []iNode
	forest []iTree
	// sample is the 0..n−1 permutation array the partial Fisher–Yates
	// shuffles across trees. It is reset to the identity per repetition
	// (the recursion allocated it fresh per forest) and is never handed to
	// the partition — trees split a copy in work, because an in-place
	// partition of sample would corrupt the next tree's shuffle.
	sample []int
	work   []int
	spill  []int
}

func newForestBuilder(v *dataset.View, trees, psi int) *forestBuilder {
	heightLimit := int(math.Ceil(math.Log2(float64(psi))))
	if heightLimit < 1 {
		heightLimit = 1
	}
	return &forestBuilder{
		v:           v,
		rows:        v.Points(),
		trees:       trees,
		psi:         psi,
		heightLimit: heightLimit,
		arena:       make([]iNode, 0, trees*(2*psi-1)),
		forest:      make([]iTree, trees),
		sample:      make([]int, v.N()),
		work:        make([]int, psi),
		spill:       make([]int, 0, psi),
	}
}

// buildForest grows one forest into the (recycled) arena and returns its
// trees. The slice and its nodes are owned by the builder and valid until
// the next buildForest call.
func (b *forestBuilder) buildForest(rng *rand.Rand) []iTree {
	n := len(b.sample)
	b.arena = b.arena[:0]
	for i := range b.sample {
		b.sample[i] = i
	}
	for t := range b.forest {
		// Uniform subsample without replacement (partial Fisher–Yates).
		for i := 0; i < b.psi; i++ {
			j := i + rng.Intn(n-i)
			b.sample[i], b.sample[j] = b.sample[j], b.sample[i]
		}
		copy(b.work, b.sample[:b.psi])
		base := len(b.arena)
		b.node(b.work, 0, base, rng)
		b.forest[t].nodes = b.arena[base:len(b.arena):len(b.arena)]
	}
	return b.forest
}

// node appends the subtree over idx to the arena and returns its node index
// relative to base (the owning tree's first arena slot). idx is partitioned
// in place; recursion happens only after the spill buffer has been copied
// back, so one shared spill serves the whole build.
func (b *forestBuilder) node(idx []int, depth, base int, rng *rand.Rand) int32 {
	v := b.v
	nodeID := int32(len(b.arena) - base)
	b.arena = append(b.arena, iNode{})
	if depth >= b.heightLimit || len(idx) <= 1 || allIdentical(b.rows, idx) {
		b.arena[base+int(nodeID)] = leaf(depth, len(idx))
		return nodeID
	}
	dim := v.Dim()
	// Pick a feature with a non-degenerate range; give up after a few
	// attempts (points can coincide on random features).
	var feature int
	var col []float64
	var lo, hi float64
	found := false
	for attempt := 0; attempt < 8 && !found; attempt++ {
		feature = rng.Intn(dim)
		col = v.Column(feature)
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			val := col[i]
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
		found = hi > lo
	}
	if !found {
		b.arena[base+int(nodeID)] = leaf(depth, len(idx))
		return nodeID
	}
	split := lo + rng.Float64()*(hi-lo)
	// Stable in-place partition: the left side compacts forward, the right
	// side detours through spill and is copied back behind it, preserving
	// the relative order the append-based recursion produced on both sides.
	spill := b.spill[:0]
	w := 0
	for _, i := range idx {
		if col[i] < split {
			idx[w] = i
			w++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[w:], spill)
	b.spill = spill
	if w == 0 || w == len(idx) {
		b.arena[base+int(nodeID)] = leaf(depth, len(idx))
		return nodeID
	}
	l := b.node(idx[:w], depth+1, base, rng)
	r := b.node(idx[w:], depth+1, base, rng)
	b.arena[base+int(nodeID)] = iNode{feature: int32(feature), split: split, left: l, right: r}
	return nodeID
}

func allIdentical(rows [][]float64, idx []int) bool {
	if len(idx) < 2 {
		return true
	}
	first := rows[idx[0]]
	for _, i := range idx[1:] {
		p := rows[i]
		for d := range p {
			if p[d] != first[d] {
				return false
			}
		}
	}
	return true
}

// pathLength returns h(x): the depth at which x lands in a leaf plus the
// c(size) adjustment for unbuilt subtrees, both stored in the leaf.
func (t *iTree) pathLength(x []float64) float64 {
	var nodeID int32
	for {
		node := &t.nodes[nodeID]
		if node.feature == -1 {
			return node.split
		}
		if x[node.feature] < node.split {
			nodeID = node.left
		} else {
			nodeID = node.right
		}
	}
}

// averagePathLength is c(n), the average path length of an unsuccessful BST
// search over n points: 2·H(n−1) − 2(n−1)/n with H the harmonic number.
func averagePathLength(n float64) float64 {
	if n <= 1 {
		return 0
	}
	if n == 2 {
		return 1
	}
	h := math.Log(n-1) + 0.5772156649015329
	return 2*h - 2*(n-1)/n
}
