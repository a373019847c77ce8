package summarize

import (
	"context"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"anex/internal/subspace"
	"anex/internal/synth"
)

// goldenHiCSContrast holds, per contrast test, the FNV-64a hashes
// TestHiCSContrastGolden produces: "contrast" over the IEEE-754 bit
// patterns of est.contrast for every 2d and then every 3d subspace in
// enumeration order, "search" over SearchContrastSubspaces(…, 3)'s list
// (each entry's features, then its score's bits). The hashes were recorded
// while the Welch arm still recomputed the test column's moments in every
// Monte-Carlo iteration, so they pin the contrast arithmetic across that
// change and any later one.
var goldenHiCSContrast = map[string]uint64{
	"Welch/contrast": 0x805f512ac847fff4,
	"Welch/search":   0x57edfbe1b0f25d1e,
	"KS/contrast":    0x991b6af6b91b6518,
	"KS/search":      0x1fb29b9e90833ec6,
}

// TestHiCSContrastGolden runs the Monte-Carlo contrast estimator and the
// stage-wise HiCS search with both two-sample tests over a seeded 300×10
// synthetic dataset and requires every result to hash to its recorded
// value.
func TestHiCSContrastGolden(t *testing.T) {
	ds, _, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "hics-golden",
		TotalDims:           10,
		SubspaceDims:        []int{2, 3},
		N:                   300,
		OutliersPerSubspace: 5,
		Seed:                19,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(h hash.Hash64, u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, test := range []ContrastTest{WelchTest, KSTest} {
		est := newContrastEstimator(ds, DefaultHiCSAlpha, DefaultHiCSMCIterations, test, rand.New(rand.NewSource(7)))
		h := fnv.New64a()
		for dim := 2; dim <= 3; dim++ {
			enum := subspace.NewEnumerator(ds.D(), dim)
			for s := enum.Next(); s != nil; s = enum.Next() {
				put(h, math.Float64bits(est.contrast(s.Clone())))
			}
		}
		key := test.String() + "/contrast"
		if got, want := h.Sum64(), goldenHiCSContrast[key]; got != want {
			t.Errorf("%s: hash %#016x, want %#016x", key, got, want)
		}

		list, err := (&HiCS{Test: test, Seed: 3}).SearchContrastSubspaces(context.Background(), ds, 3)
		if err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		for _, e := range list {
			for _, f := range e.Subspace {
				put(h, uint64(f))
			}
			put(h, math.Float64bits(e.Score))
		}
		key = test.String() + "/search"
		if got, want := h.Sum64(), goldenHiCSContrast[key]; got != want {
			t.Errorf("%s: hash %#016x, want %#016x (%d subspaces)", key, got, want, len(list))
		}
	}
}
