package subspace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewCanonicalises(t *testing.T) {
	cases := []struct {
		in   []int
		want Subspace
	}{
		{nil, Subspace{}},
		{[]int{3}, Subspace{3}},
		{[]int{3, 1, 2}, Subspace{1, 2, 3}},
		{[]int{5, 5, 1, 1}, Subspace{1, 5}},
		{[]int{0, 0, 0}, Subspace{0}},
	}
	for _, c := range cases {
		got := New(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("New(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFull(t *testing.T) {
	if got := Full(4); !got.Equal(New(0, 1, 2, 3)) {
		t.Errorf("Full(4) = %v", got)
	}
	if got := Full(0); got.Dim() != 0 {
		t.Errorf("Full(0) = %v, want empty", got)
	}
}

func TestContains(t *testing.T) {
	s := New(1, 3, 5)
	for _, f := range []int{1, 3, 5} {
		if !s.Contains(f) {
			t.Errorf("%v should contain %d", s, f)
		}
	}
	for _, f := range []int{0, 2, 4, 6, -1} {
		if s.Contains(f) {
			t.Errorf("%v should not contain %d", s, f)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 3, 5, 7)
	cases := []struct {
		other Subspace
		want  bool
	}{
		{New(), true},
		{New(1), true},
		{New(3, 7), true},
		{New(1, 3, 5, 7), true},
		{New(2), false},
		{New(1, 2), false},
		{New(1, 3, 5, 7, 9), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.other); got != c.want {
			t.Errorf("%v.ContainsAll(%v) = %v, want %v", s, c.other, got, c.want)
		}
	}
}

func TestWithWithout(t *testing.T) {
	s := New(1, 5)
	if got := s.With(3); !got.Equal(New(1, 3, 5)) {
		t.Errorf("With(3) = %v", got)
	}
	if got := s.With(0); !got.Equal(New(0, 1, 5)) {
		t.Errorf("With(0) = %v", got)
	}
	if got := s.With(9); !got.Equal(New(1, 5, 9)) {
		t.Errorf("With(9) = %v", got)
	}
	if got := s.With(5); !got.Equal(s) {
		t.Errorf("With(existing) = %v", got)
	}
	if got := s.Without(1); !got.Equal(New(5)) {
		t.Errorf("Without(1) = %v", got)
	}
	if got := s.Without(7); !got.Equal(s) {
		t.Errorf("Without(missing) = %v", got)
	}
	// With must not mutate the receiver.
	if !s.Equal(New(1, 5)) {
		t.Errorf("receiver mutated: %v", s)
	}
}

func TestUnionIntersectOverlaps(t *testing.T) {
	a := New(1, 2, 5)
	b := New(2, 3, 7)
	if got := a.Union(b); !got.Equal(New(1, 2, 3, 5, 7)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(New(2)) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("a and b should overlap")
	}
	c := New(0, 9)
	if a.Overlaps(c) {
		t.Error("a and c should not overlap")
	}
	if got := a.Intersect(c); got.Dim() != 0 {
		t.Errorf("disjoint Intersect = %v", got)
	}
}

func TestKeyParseRoundTrip(t *testing.T) {
	cases := []Subspace{New(), New(0), New(1, 4, 9), New(10, 100, 1000)}
	for _, s := range cases {
		parsed, err := Parse(s.Key())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.Key(), err)
		}
		if !parsed.Equal(s) {
			t.Errorf("round trip %v → %q → %v", s, s.Key(), parsed)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"a", "1,a", "-1", "1,1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestString(t *testing.T) {
	if got := New(1, 4).String(); got != "{F1, F4}" {
		t.Errorf("String = %q", got)
	}
	if got := New().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestValidate(t *testing.T) {
	if err := New(0, 3).Validate(4); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if err := New(0, 4).Validate(4); err == nil {
		t.Error("out-of-range feature should fail validation")
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		d, k int
		want int64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {5, 3, 10},
		{6, 2, 15}, {39, 2, 741}, {100, 4, 3921225},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Count(c.d, c.k); got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.d, c.k, got, c.want)
		}
	}
}

func TestEnumeratorMatchesCount(t *testing.T) {
	for d := 1; d <= 8; d++ {
		for k := 1; k <= d; k++ {
			e := NewEnumerator(d, k)
			seen := make(map[string]bool)
			n := 0
			prev := ""
			for s := e.Next(); s != nil; s = e.Next() {
				key := s.Key()
				if seen[key] {
					t.Fatalf("d=%d k=%d: duplicate %s", d, k, key)
				}
				seen[key] = true
				if s.Dim() != k {
					t.Fatalf("d=%d k=%d: wrong dim %d", d, k, s.Dim())
				}
				if err := s.Validate(d); err != nil {
					t.Fatalf("d=%d k=%d: %v", d, k, err)
				}
				n++
				prev = key
			}
			_ = prev
			if int64(n) != Count(d, k) {
				t.Errorf("d=%d k=%d: enumerated %d, want %d", d, k, n, Count(d, k))
			}
			// Exhausted enumerator stays exhausted.
			if s := e.Next(); s != nil {
				t.Errorf("d=%d k=%d: Next after exhaustion = %v", d, k, s)
			}
		}
	}
}

func TestEnumeratorDegenerate(t *testing.T) {
	if s := NewEnumerator(3, 0).Next(); s != nil {
		t.Errorf("k=0 should be empty, got %v", s)
	}
	if s := NewEnumerator(3, 4).Next(); s != nil {
		t.Errorf("k>d should be empty, got %v", s)
	}
}

func TestAll(t *testing.T) {
	all := All(4, 2, 0)
	if len(all) != 6 {
		t.Fatalf("All(4,2) returned %d subspaces", len(all))
	}
	if !all[0].Equal(New(0, 1)) || !all[5].Equal(New(2, 3)) {
		t.Errorf("unexpected order: %v", all)
	}
	defer func() {
		if recover() == nil {
			t.Error("All should panic above the limit")
		}
	}()
	All(100, 4, 1000)
}

func TestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make(map[string]int)
	const draws = 3000
	for i := 0; i < draws; i++ {
		s := Random(rng, 5, 2)
		if s.Dim() != 2 {
			t.Fatalf("dim %d", s.Dim())
		}
		if err := s.Validate(5); err != nil {
			t.Fatal(err)
		}
		counts[s.Key()]++
	}
	if len(counts) != 10 {
		t.Fatalf("expected all 10 possible 2d subspaces, saw %d", len(counts))
	}
	// Rough uniformity: every subspace within 3x of the expected count.
	for k, c := range counts {
		if c < draws/10/3 || c > draws/10*3 {
			t.Errorf("subspace %s drawn %d times, expected ≈ %d", k, c, draws/10)
		}
	}
}

func TestPropertyCanonicalInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		feats := make([]int, len(raw))
		for i, r := range raw {
			feats[i] = int(r % 32)
		}
		s := New(feats...)
		// Strictly increasing.
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		// Every input feature present, nothing else.
		for _, f := range feats {
			if !s.Contains(f) {
				return false
			}
		}
		// Union with itself is itself; intersect with itself is itself.
		return s.Union(s).Equal(s) && s.Intersect(s).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnionCommutes(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa := fromBytes(a)
		sb := fromBytes(b)
		u1 := sa.Union(sb)
		u2 := sb.Union(sa)
		if !u1.Equal(u2) {
			return false
		}
		// Union contains both; intersection contained in both.
		if !u1.ContainsAll(sa) || !u1.ContainsAll(sb) {
			return false
		}
		in := sa.Intersect(sb)
		return sa.ContainsAll(in) && sb.ContainsAll(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyKeyRoundTrip(t *testing.T) {
	f := func(a []uint8) bool {
		s := fromBytes(a)
		parsed, err := Parse(s.Key())
		return err == nil && parsed.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fromBytes(raw []uint8) Subspace {
	feats := make([]int, len(raw))
	for i, r := range raw {
		feats[i] = int(r % 64)
	}
	return New(feats...)
}

func TestPropertyEnumerationSorted(t *testing.T) {
	// Lexicographic order of enumeration implies sorted keys per fixed
	// width; verify via reflect.DeepEqual on a re-sorted copy for small
	// spaces.
	all := All(7, 3, 0)
	keys := make([]string, len(all))
	for i, s := range all {
		keys[i] = s.Key()
	}
	again := All(7, 3, 0)
	keys2 := make([]string, len(again))
	for i, s := range again {
		keys2[i] = s.Key()
	}
	if !reflect.DeepEqual(keys, keys2) {
		t.Error("enumeration is not deterministic")
	}
}
