package synth

import (
	"context"
	"math"
	"testing"

	"anex/internal/detector"
	"anex/internal/stats"
)

func smallConfig(seed int64) SubspaceConfig {
	return SubspaceConfig{
		Name:                "t",
		TotalDims:           10,
		SubspaceDims:        []int{2, 3},
		N:                   200,
		OutliersPerSubspace: 4,
		DoubleOutliers:      1,
		Seed:                seed,
	}
}

func TestSubspaceConfigValidate(t *testing.T) {
	good := smallConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.SubspaceDims = []int{1}
	if err := bad.Validate(); err == nil {
		t.Error("1d subspace should be rejected")
	}
	bad = good
	bad.SubspaceDims = []int{6, 6}
	if err := bad.Validate(); err == nil {
		t.Error("overfull dims should be rejected")
	}
	bad = good
	bad.N = 10
	if err := bad.Validate(); err == nil {
		t.Error("too few points should be rejected")
	}
	bad = good
	bad.DoubleOutliers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative doubles should be rejected")
	}
}

func TestGenerateSubspaceOutliersShape(t *testing.T) {
	c := smallConfig(7)
	ds, gt, err := GenerateSubspaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != c.N || ds.D() != c.TotalDims {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 subspaces × 4 − 1 double = 7 distinct outliers.
	if gt.NumOutliers() != c.NumOutliers() {
		t.Errorf("outliers = %d, want %d", gt.NumOutliers(), c.NumOutliers())
	}
	// Exactly one point has two relevant subspaces.
	doubles := 0
	for _, p := range gt.Outliers() {
		switch n := len(gt.RelevantFor(p)); n {
		case 1:
		case 2:
			doubles++
		default:
			t.Errorf("point %d has %d relevant subspaces", p, n)
		}
	}
	if doubles != 1 {
		t.Errorf("doubles = %d, want 1", doubles)
	}
	// Planted subspaces are disjoint and of the configured dims.
	all := gt.AllSubspaces()
	if len(all) != 2 {
		t.Fatalf("planted subspaces = %v", all)
	}
	if all[0].Overlaps(all[1]) {
		t.Error("planted subspaces overlap")
	}
	gotDims := map[int]bool{all[0].Dim(): true, all[1].Dim(): true}
	if !gotDims[2] || !gotDims[3] {
		t.Errorf("planted dims wrong: %v", all)
	}
	// Values live in [0,1].
	for f := 0; f < ds.D(); f++ {
		lo, hi := stats.MinMax(ds.Column(f))
		if lo < 0 || hi > 1 {
			t.Errorf("feature %d range [%v, %v]", f, lo, hi)
		}
	}
}

func TestGenerateSubspaceOutliersDeterministic(t *testing.T) {
	a, gta, err := GenerateSubspaceOutliers(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, gtb, err := GenerateSubspaceOutliers(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < a.D(); f++ {
		ca, cb := a.Column(f), b.Column(f)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("value (%d,%d) differs", i, f)
			}
		}
	}
	oa, ob := gta.Outliers(), gtb.Outliers()
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("outlier sets differ")
		}
	}
	c, _, err := GenerateSubspaceOutliers(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for f := 0; f < a.D() && same; f++ {
		ca, cc := a.Column(f), c.Column(f)
		for i := range ca {
			if ca[i] != cc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

// TestPlantedOutliersDetectableByLOF verifies the construction invariant the
// whole testbed depends on: within its relevant subspace, a planted outlier
// must receive a top LOF score (the paper aligns ground truth exactly this
// way).
func TestPlantedOutliersDetectableByLOF(t *testing.T) {
	c := smallConfig(11)
	ds, gt, err := GenerateSubspaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	lof := detector.NewLOF(15)
	for _, sub := range gt.AllSubspaces() {
		scores, serr := lof.Scores(context.Background(), ds.View(sub))
		if serr != nil {
			t.Fatal(serr)
		}
		// Points deviating in this subspace.
		var deviating []int
		for _, p := range gt.Outliers() {
			for _, s := range gt.RelevantFor(p) {
				if s.Equal(sub) {
					deviating = append(deviating, p)
				}
			}
		}
		top := topIndices(scores, len(deviating))
		topSet := make(map[int]bool, len(top))
		for _, p := range top {
			topSet[p] = true
		}
		for _, p := range deviating {
			if !topSet[p] {
				t.Errorf("subspace %v: planted outlier %d not in LOF top-%d", sub, p, len(deviating))
			}
		}
	}
}

// TestOutliersMaskedInSingleFeatures verifies property (v): in 1d
// projections of a relevant subspace the planted outliers are mixed with
// inliers (their values fall inside the inlier range).
func TestOutliersMaskedInSingleFeatures(t *testing.T) {
	ds, gt, err := GenerateSubspaceOutliers(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	masked := 0
	total := 0
	// Range criterion: each outlier coordinate must fall within the
	// inlier min/max of that feature, so no single feature reveals it.
	for _, p := range gt.Outliers() {
		for _, sub := range gt.RelevantFor(p) {
			for _, f := range sub {
				col := ds.Column(f)
				var lo, hi float64 = math.Inf(1), math.Inf(-1)
				for i, v := range col {
					if gt.IsOutlier(i) {
						continue
					}
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				total++
				if col[p] >= lo && col[p] <= hi {
					masked++
				}
			}
		}
	}
	if float64(masked)/float64(total) < 0.9 {
		t.Errorf("only %d/%d outlier coordinates masked in 1d", masked, total)
	}
}

// TestPlantedSubspacesHaveHighContrastStructure verifies the HiCS property:
// conditioning on one feature of a planted subspace changes the distribution
// of another (high contrast), while noise features are independent.
func TestPlantedSubspacesHaveHighContrastStructure(t *testing.T) {
	c := smallConfig(17)
	ds, gt, err := GenerateSubspaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	sub := gt.AllSubspaces()[0]
	f0, f1 := sub[0], sub[1]
	// Conditioning: restrict to points whose f0 value sits in the lowest
	// grid level; the f1 distribution of that slice must differ from the
	// marginal.
	col0, col1 := ds.Column(f0), ds.Column(f1)
	var cond []float64
	for i := range col0 {
		if col0[i] < 0.35 {
			cond = append(cond, col1[i])
		}
	}
	res := stats.KolmogorovSmirnov(cond, col1)
	if res.P > 0.01 {
		t.Errorf("planted pair (%d,%d) shows no dependence: p = %v", f0, f1, res.P)
	}
	// Noise features are independent of each other.
	noise1, noise2 := ds.D()-1, ds.D()-2
	coln1, coln2 := ds.Column(noise1), ds.Column(noise2)
	var condN []float64
	for i := range coln1 {
		if coln1[i] < 0.45 { // noise band is [0.3, 0.7]
			condN = append(condN, coln2[i])
		}
	}
	if len(condN) < 20 {
		t.Fatalf("conditional noise sample too small (%d) — test misconfigured", len(condN))
	}
	resN := stats.KolmogorovSmirnov(condN, coln2)
	if resN.P < 0.001 {
		t.Errorf("noise pair shows spurious dependence: p = %v", resN.P)
	}
}

func TestFullSpaceConfigValidate(t *testing.T) {
	good := FullSpaceConfig{Name: "r", N: 100, D: 8, NumOutliers: 10, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.NumOutliers = 60
	if err := bad.Validate(); err == nil {
		t.Error("contamination > 50% should be rejected")
	}
	bad = good
	bad.D = 1
	if err := bad.Validate(); err == nil {
		t.Error("1d dataset should be rejected")
	}
}

func TestGenerateFullSpaceOutliers(t *testing.T) {
	c := FullSpaceConfig{Name: "r", N: 150, D: 8, NumOutliers: 15, Seed: 5}
	ds, outliers, err := GenerateFullSpaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 150 || ds.D() != 8 {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	if len(outliers) != 15 {
		t.Fatalf("outliers = %d", len(outliers))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outliers); i++ {
		if outliers[i] <= outliers[i-1] {
			t.Fatal("outlier indices not sorted/distinct")
		}
	}
	// The planted outliers must dominate the full-space LOF ranking —
	// they are full-space density outliers by construction.
	scores, serr := detector.NewLOF(15).Scores(context.Background(), ds.FullView())
	if serr != nil {
		t.Fatal(serr)
	}
	top := topIndices(scores, len(outliers))
	topSet := make(map[int]bool)
	for _, p := range top {
		topSet[p] = true
	}
	hits := 0
	for _, p := range outliers {
		if topSet[p] {
			hits++
		}
	}
	if float64(hits)/float64(len(outliers)) < 0.85 {
		t.Errorf("only %d/%d planted outliers in LOF top ranks", hits, len(outliers))
	}
}

func TestDeriveTopSubspaceGroundTruth(t *testing.T) {
	c := FullSpaceConfig{Name: "r", N: 120, D: 6, NumOutliers: 10, Seed: 9}
	ds, outliers, err := GenerateFullSpaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := DeriveTopSubspaceGroundTruth(context.Background(), ds, outliers, []int{2, 3}, detector.NewLOF(15))
	if err != nil {
		t.Fatal(err)
	}
	if gt.NumOutliers() != len(outliers) {
		t.Fatalf("ground truth covers %d of %d outliers", gt.NumOutliers(), len(outliers))
	}
	for _, p := range outliers {
		rel := gt.RelevantFor(p)
		// One relevant subspace per dimensionality (they could coincide
		// in key only if dims differ, so exactly 2 entries).
		if len(rel) != 2 {
			t.Errorf("point %d: %d relevant subspaces, want 2", p, len(rel))
		}
		dims := map[int]bool{}
		for _, s := range rel {
			dims[s.Dim()] = true
			if err := s.Validate(ds.D()); err != nil {
				t.Error(err)
			}
		}
		if !dims[2] || !dims[3] {
			t.Errorf("point %d: dims %v", p, dims)
		}
	}
}

func TestDeriveGroundTruthErrors(t *testing.T) {
	c := FullSpaceConfig{Name: "r", N: 50, D: 4, NumOutliers: 5, Seed: 2}
	ds, outliers, err := GenerateFullSpaceOutliers(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveTopSubspaceGroundTruth(context.Background(), ds, nil, []int{2}, detector.NewLOF(5)); err == nil {
		t.Error("no outliers should fail")
	}
	if _, err := DeriveTopSubspaceGroundTruth(context.Background(), ds, outliers, []int{9}, detector.NewLOF(5)); err == nil {
		t.Error("out-of-range dim should fail")
	}
	if _, err := DeriveTopSubspaceGroundTruth(context.Background(), ds, outliers, []int{2}, nil); err == nil {
		t.Error("nil detector should fail")
	}
}

func TestConfigsAreValid(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScalePaper} {
		for _, c := range SyntheticConfigs(scale, 1) {
			if err := c.Validate(); err != nil {
				t.Errorf("%s/%s: %v", scale, c.Name, err)
			}
		}
		for _, c := range RealWorldConfigs(scale, 1) {
			if err := c.Validate(); err != nil {
				t.Errorf("%s/%s: %v", scale, c.Name, err)
			}
		}
	}
}

func TestPaperScaleShapesMatchTable1(t *testing.T) {
	configs := SyntheticConfigs(ScalePaper, 1)
	wantDims := []int{14, 23, 39, 70, 100}
	wantSubs := []int{4, 7, 12, 22, 31}
	wantOutliers := []int{20, 34, 59, 100, 143}
	if len(configs) != 5 {
		t.Fatalf("%d synthetic configs", len(configs))
	}
	for i, c := range configs {
		if c.TotalDims != wantDims[i] {
			t.Errorf("%s: dims %d, want %d", c.Name, c.TotalDims, wantDims[i])
		}
		if len(c.SubspaceDims) != wantSubs[i] {
			t.Errorf("%s: %d subspaces, want %d", c.Name, len(c.SubspaceDims), wantSubs[i])
		}
		if got := c.NumOutliers(); got != wantOutliers[i] {
			t.Errorf("%s: %d outliers, want %d", c.Name, got, wantOutliers[i])
		}
		if c.N != 1000 {
			t.Errorf("%s: N = %d", c.Name, c.N)
		}
	}
	real := RealWorldConfigs(ScalePaper, 1)
	shapes := [][3]int{{198, 31, 20}, {569, 30, 57}, {1205, 23, 121}}
	for i, c := range real {
		if c.N != shapes[i][0] || c.D != shapes[i][1] || c.NumOutliers != shapes[i][2] {
			t.Errorf("%s: %dx%d/%d", c.Name, c.N, c.D, c.NumOutliers)
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("paper"); err != nil || s != ScalePaper {
		t.Errorf("paper: %v %v", s, err)
	}
	if s, err := ParseScale("small"); err != nil || s != ScaleSmall {
		t.Errorf("small: %v %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale should fail")
	}
}

func TestTopIndices(t *testing.T) {
	got := topIndices([]float64{1, 9, 3, 9, 5}, 3)
	// Ties break on lower index: 1 (9), 3 (9), 4 (5).
	if got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Errorf("topIndices = %v", got)
	}
	if got := topIndices([]float64{1, 2}, 5); len(got) != 2 {
		t.Errorf("clamped topIndices = %v", got)
	}
}

func TestBuildHelpers(t *testing.T) {
	td, err := BuildSynthetic(smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if !td.Synthetic || td.Dataset == nil || td.GroundTruth == nil {
		t.Error("BuildSynthetic incomplete")
	}
	rw, err := BuildRealWorld(context.Background(), FullSpaceConfig{Name: "r", N: 80, D: 5, NumOutliers: 8, Seed: 3}, []int{2}, detector.NewLOF(10))
	if err != nil {
		t.Fatal(err)
	}
	if rw.Synthetic || rw.GroundTruth.NumOutliers() != 8 {
		t.Error("BuildRealWorld incomplete")
	}
}

func TestScaleStringAndDims(t *testing.T) {
	if ScaleSmall.String() != "small" || ScalePaper.String() != "paper" {
		t.Error("Scale.String")
	}
	if dims := GroundTruthDims(ScalePaper); len(dims) != 3 || dims[2] != 4 {
		t.Errorf("paper GT dims %v", dims)
	}
	if dims := GroundTruthDims(ScaleSmall); len(dims) != 2 {
		t.Errorf("small GT dims %v", dims)
	}
	if dims := ExplanationDims(ScalePaper, true); dims[len(dims)-1] != 5 {
		t.Errorf("paper synthetic dims %v", dims)
	}
	if dims := ExplanationDims(ScalePaper, false); dims[len(dims)-1] != 4 {
		t.Errorf("paper real dims %v", dims)
	}
	if dims := ExplanationDims(ScaleSmall, false); dims[len(dims)-1] != 3 {
		t.Errorf("small real dims %v", dims)
	}
}

func TestBuildHelperErrors(t *testing.T) {
	if _, err := BuildSynthetic(SubspaceConfig{Name: "bad"}); err == nil {
		t.Error("invalid synthetic config should fail")
	}
	if _, err := BuildRealWorld(context.Background(), FullSpaceConfig{Name: "bad"}, []int{2}, detector.NewLOF(5)); err == nil {
		t.Error("invalid real config should fail")
	}
	if _, err := BuildRealWorld(context.Background(), FullSpaceConfig{Name: "r", N: 60, D: 4, NumOutliers: 6, Seed: 1}, []int{9}, detector.NewLOF(5)); err == nil {
		t.Error("bad GT dims should fail")
	}
}

// topIndices returns the indices of the k largest scores, descending; ties
// break on the smaller index.
func topIndices(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is tiny (5 in the paper).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] ||
				(scores[idx[j]] == scores[idx[best]] && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
