package subspace

import (
	"fmt"
	"math"
	"math/rand"
)

// Count returns the number of k-feature subspaces of a d-feature space,
// i.e. the binomial coefficient C(d, k). It returns 0 when k > d or k < 0,
// and saturates at math.MaxInt64 on overflow.
func Count(d, k int) int64 {
	if k < 0 || k > d {
		return 0
	}
	if k > d-k {
		k = d - k
	}
	result := int64(1)
	for i := 1; i <= k; i++ {
		// Multiply before dividing; detect overflow via float guard.
		f := float64(result) * float64(d-k+i) / float64(i)
		if f > math.MaxInt64/2 {
			return math.MaxInt64
		}
		result = result * int64(d-k+i) / int64(i)
	}
	return result
}

// Enumerator streams all k-feature subspaces of a d-feature space in
// lexicographic order without materialising them all at once. The slice
// returned by Next is reused between calls; clone it if it must be retained.
type Enumerator struct {
	d, k    int
	current Subspace
	done    bool
}

// NewEnumerator returns an enumerator over all k-subsets of {0,…,d-1}.
func NewEnumerator(d, k int) *Enumerator {
	e := &Enumerator{d: d, k: k}
	if k <= 0 || k > d {
		e.done = true
	}
	return e
}

// Next returns the next subspace, or nil when the enumeration is exhausted.
// The returned slice is owned by the enumerator and overwritten by the next
// call; use Clone to keep it.
func (e *Enumerator) Next() Subspace {
	if e.done {
		return nil
	}
	if e.current == nil {
		e.current = make(Subspace, e.k)
		for i := range e.current {
			e.current[i] = i
		}
		return e.current
	}
	// Advance to the next combination in lexicographic order.
	i := e.k - 1
	for i >= 0 && e.current[i] == e.d-e.k+i {
		i--
	}
	if i < 0 {
		e.done = true
		return nil
	}
	e.current[i]++
	for j := i + 1; j < e.k; j++ {
		e.current[j] = e.current[j-1] + 1
	}
	return e.current
}

// All materialises every k-feature subspace of a d-feature space.
// It panics if the enumeration would exceed maxCount subspaces (pass 0 for
// no limit); callers enumerating potentially huge spaces should use
// Enumerator directly.
func All(d, k int, maxCount int64) []Subspace {
	n := Count(d, k)
	if maxCount > 0 && n > maxCount {
		panic(fmt.Sprintf("subspace: C(%d,%d)=%d exceeds limit %d", d, k, n, maxCount))
	}
	out := make([]Subspace, 0, n)
	e := NewEnumerator(d, k)
	for s := e.Next(); s != nil; s = e.Next() {
		out = append(out, s.Clone())
	}
	return out
}

// Random returns a uniformly random k-feature subspace of a d-feature space,
// drawn with a partial Fisher–Yates shuffle. It panics if k > d or k < 0.
func Random(rng *rand.Rand, d, k int) Subspace {
	if k < 0 || k > d {
		panic(fmt.Sprintf("subspace: cannot draw %d features from %d", k, d))
	}
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return New(perm[:k]...)
}
