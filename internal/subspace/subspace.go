// Package subspace provides the feature-subspace algebra shared by all
// outlier-explanation algorithms: a canonical representation for sets of
// feature indices, set operations, and combination enumerators.
//
// A subspace is a strictly increasing slice of feature indices. All
// constructors in this package return canonical (sorted, deduplicated)
// subspaces, and all operations preserve canonical form, so two subspaces
// over the same features always compare equal and share one Key.
package subspace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Subspace is a canonical (strictly increasing) set of feature indices.
// The zero value is the empty subspace.
type Subspace []int

// New returns the canonical subspace over the given feature indices.
// Duplicates are removed.
func New(features ...int) Subspace {
	s := make(Subspace, len(features))
	copy(s, features)
	sort.Ints(s)
	// Deduplicate in place.
	out := s[:0]
	for i, f := range s {
		if i == 0 || f != s[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Full returns the subspace {0, 1, …, d-1} covering all d features.
func Full(d int) Subspace {
	s := make(Subspace, d)
	for i := range s {
		s[i] = i
	}
	return s
}

// Dim returns the number of features in the subspace.
func (s Subspace) Dim() int { return len(s) }

// Clone returns an independent copy of s.
func (s Subspace) Clone() Subspace {
	c := make(Subspace, len(s))
	copy(c, s)
	return c
}

// Contains reports whether feature f is a member of s.
func (s Subspace) Contains(f int) bool {
	i := sort.SearchInts(s, f)
	return i < len(s) && s[i] == f
}

// ContainsAll reports whether every feature of other is a member of s.
func (s Subspace) ContainsAll(other Subspace) bool {
	i := 0
	for _, f := range other {
		for i < len(s) && s[i] < f {
			i++
		}
		if i >= len(s) || s[i] != f {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same features.
func (s Subspace) Equal(other Subspace) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// With returns a new canonical subspace equal to s ∪ {f}.
// If f is already a member, a copy of s is returned.
func (s Subspace) With(f int) Subspace {
	i := sort.SearchInts(s, f)
	if i < len(s) && s[i] == f {
		return s.Clone()
	}
	out := make(Subspace, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, f)
	out = append(out, s[i:]...)
	return out
}

// Without returns a new canonical subspace equal to s \ {f}.
func (s Subspace) Without(f int) Subspace {
	out := make(Subspace, 0, len(s))
	for _, g := range s {
		if g != f {
			out = append(out, g)
		}
	}
	return out
}

// Union returns a new canonical subspace equal to s ∪ other.
func (s Subspace) Union(other Subspace) Subspace {
	out := make(Subspace, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns a new canonical subspace equal to s ∩ other.
func (s Subspace) Intersect(other Subspace) Subspace {
	var out Subspace
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Overlaps reports whether s and other share at least one feature.
func (s Subspace) Overlaps(other Subspace) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Key returns a compact canonical string usable as a map key,
// e.g. "1,4,9". The empty subspace has key "".
func (s Subspace) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the subspace's Key to dst and returns the extended
// buffer, so a caller composing a longer key (a dataset's source key, a
// separator and the subspace) builds it with a single allocation.
func (s Subspace) AppendKey(dst []byte) []byte {
	for i, f := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(f), 10)
	}
	return dst
}

// String renders the subspace in the paper's notation, e.g. "{F1, F4, F9}".
func (s Subspace) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "F%d", f)
	}
	b.WriteByte('}')
	return b.String()
}

// Parse parses a Key-formatted string ("1,4,9") back into a subspace.
func Parse(key string) (Subspace, error) {
	if key == "" {
		return Subspace{}, nil
	}
	parts := strings.Split(key, ",")
	s := make(Subspace, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("subspace: parse %q: %w", key, err)
		}
		if f < 0 {
			return nil, fmt.Errorf("subspace: parse %q: negative feature index %d", key, f)
		}
		s = append(s, f)
	}
	out := New(s...)
	if len(out) != len(s) {
		return nil, fmt.Errorf("subspace: parse %q: duplicate feature index", key)
	}
	return out, nil
}

// Validate checks that every feature index lies in [0, d).
func (s Subspace) Validate(d int) error {
	for _, f := range s {
		if f < 0 || f >= d {
			return fmt.Errorf("subspace %s: feature F%d out of range [0, %d)", s, f, d)
		}
	}
	return nil
}
