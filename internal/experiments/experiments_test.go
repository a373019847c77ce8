package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"anex/internal/detector"
	"anex/internal/synth"
)

// tinySession builds a Session over a hand-rolled miniature testbed so the
// experiment plumbing can be exercised in test time.
func tinySession(t *testing.T) *Session {
	t.Helper()
	cfg := Config{Scale: synth.ScaleSmall, Seed: 7}
	// Derive the real-world ground truth on the session engine's plane, as
	// NewSession does, so the experiments reuse its neighbourhoods.
	gtLOF := detector.NewLOF(detector.DefaultLOFK)
	cfg.engine().WirePlane(gtLOF)
	tb := &Testbed{}
	for i, c := range []synth.SubspaceConfig{
		{Name: "tiny-8d", TotalDims: 8, SubspaceDims: []int{2, 3}, N: 150, OutliersPerSubspace: 3, Seed: 1},
		{Name: "tiny-10d", TotalDims: 10, SubspaceDims: []int{2, 2, 3}, N: 150, OutliersPerSubspace: 3, DoubleOutliers: 1, Seed: 2},
	} {
		td, err := synth.BuildSynthetic(c)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		tb.Synthetic = append(tb.Synthetic, td)
	}
	rw, err := synth.BuildRealWorld(context.Background(),
		synth.FullSpaceConfig{Name: "tiny-real", N: 100, D: 7, NumOutliers: 8, Seed: 3},
		[]int{2, 3}, gtLOF)
	if err != nil {
		t.Fatal(err)
	}
	tb.RealWorld = append(tb.RealWorld, rw)
	return &Session{Cfg: cfg, TB: tb}
}

func TestTable1Structure(t *testing.T) {
	s := tinySession(t)
	tbl := s.Table1()
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
	// Synthetic rows labelled subspace, real rows full space.
	if tbl.Rows[0][1] != "subspace" || tbl.Rows[2][1] != "full space" {
		t.Errorf("outlier types: %v / %v", tbl.Rows[0][1], tbl.Rows[2][1])
	}
	// Real-like contamination ≈ 8/100.
	if tbl.Rows[2][5] != "8.0%" {
		t.Errorf("contamination cell %q", tbl.Rows[2][5])
	}
}

func TestFigure8Structure(t *testing.T) {
	s := tinySession(t)
	tbl := s.Figure8()
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// tiny-8d: one 2d and one 3d subspace.
	if tbl.Rows[0][1] != "1" || tbl.Rows[0][2] != "1" {
		t.Errorf("tiny-8d subspace counts: %v", tbl.Rows[0])
	}
	// tiny-10d: two 2d and one 3d.
	if tbl.Rows[1][1] != "2" || tbl.Rows[1][2] != "1" {
		t.Errorf("tiny-10d subspace counts: %v", tbl.Rows[1])
	}
}

func TestFigure9And10EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines")
	}
	s := tinySession(t)
	fig9 := s.Figure9(context.Background())
	// 3 datasets × 2 explainers × 3 detectors.
	if len(fig9.Rows) != 18 {
		t.Fatalf("figure 9 rows = %d", len(fig9.Rows))
	}
	// Beam+LOF on the real-like dataset must be ≈ 1 at 2d (the paper's
	// headline full-space result; ground truth shares the criterion).
	found := false
	for _, row := range fig9.Rows {
		if row[0] == "tiny-real" && row[1] == "Beam_FX" && row[2] == "LOF" {
			found = true
			if row[3] != "1.000" {
				t.Errorf("Beam+LOF on real-like at 2d = %s, want 1.000", row[3])
			}
		}
	}
	if !found {
		t.Fatal("Beam+LOF row missing")
	}

	fig10 := s.Figure10(context.Background())
	if len(fig10.Rows) != 18 {
		t.Fatalf("figure 10 rows = %d", len(fig10.Rows))
	}
	// Every MAP cell parses as float, "-" or "err".
	for _, tbl := range []*Table{fig9, fig10} {
		for _, row := range tbl.Rows {
			for _, cell := range row[3:] {
				if cell == "-" || cell == "err" {
					continue
				}
				if !strings.Contains(cell, ".") {
					t.Errorf("unexpected cell %q", cell)
				}
			}
		}
	}
}

func TestFigure11AndTable2EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines")
	}
	s := tinySession(t)
	fig11 := s.Figure11(context.Background())
	if len(fig11.Rows) == 0 {
		t.Fatal("figure 11 empty")
	}
	// Timing cells are durations or "-".
	for _, row := range fig11.Rows {
		for _, cell := range row[3:] {
			if cell == "-" {
				continue
			}
			if !strings.ContainsAny(cell, "smµn") {
				t.Errorf("cell %q is not a duration", cell)
			}
		}
	}
	tbl2 := s.Table2(context.Background())
	if len(tbl2.Rows) == 0 {
		t.Fatal("table 2 empty")
	}
	// Each populated cell names one point pipeline and one summary one.
	for _, row := range tbl2.Rows {
		for _, cell := range row[1:] {
			if cell == "-" {
				continue
			}
			if !strings.Contains(cell, " / ") {
				t.Errorf("cell %q lacks point/summary split", cell)
			}
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "hello"}, {"22", "x"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T — demo", "a", "hello", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,b" {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestFmtFloat(t *testing.T) {
	if fmtFloat(0.5) != "0.500" {
		t.Error("fmtFloat positive")
	}
	if fmtFloat(-1) != "-" {
		t.Error("fmtFloat skip marker")
	}
}

func TestFeasibilityCaps(t *testing.T) {
	// Small scale: everything feasible.
	if !feasiblePoint(synth.ScaleSmall, 100, 5, "FastABOD", "Beam_FX") {
		t.Error("small scale must be unrestricted")
	}
	// Paper scale caps mirror Section 4.
	cases := []struct {
		d, dim    int
		det, expl string
		want      bool
	}{
		{100, 4, "FastABOD", "Beam_FX", false},
		{100, 3, "FastABOD", "Beam_FX", true},
		{70, 5, "iForest", "Beam_FX", false},
		{70, 4, "iForest", "Beam_FX", true},
		{39, 5, "iForest", "Beam_FX", true},
		{100, 5, "LOF", "Beam_FX", true},
		{100, 5, "LOF", "RefOut", true},
	}
	for _, c := range cases {
		if got := feasiblePoint(synth.ScalePaper, c.d, c.dim, c.det, c.expl); got != c.want {
			t.Errorf("feasiblePoint(%dd, %dd, %s, %s) = %v", c.d, c.dim, c.det, c.expl, got)
		}
	}
	sumCases := []struct {
		d, dim   int
		det, sum string
		want     bool
	}{
		{100, 5, "LOF", "LookOut", false},
		{100, 4, "LOF", "LookOut", true},
		{70, 4, "iForest", "LookOut", false},
		{70, 3, "iForest", "LookOut", true},
		{100, 5, "LOF", "HiCS_FX", true},
	}
	for _, c := range sumCases {
		if got := feasibleSummary(synth.ScalePaper, c.d, c.dim, c.det, c.sum); got != c.want {
			t.Errorf("feasibleSummary(%dd, %dd, %s, %s) = %v", c.d, c.dim, c.det, c.sum, got)
		}
	}
}

func TestNewSessionSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full small-scale testbed")
	}
	var progress bytes.Buffer
	s, err := NewSession(context.Background(), Config{Scale: synth.ScaleSmall, Seed: 1, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TB.Synthetic) != 5 || len(s.TB.RealWorld) != 3 {
		t.Fatalf("testbed %d+%d datasets", len(s.TB.Synthetic), len(s.TB.RealWorld))
	}
	if !strings.Contains(progress.String(), "generating") {
		t.Error("no progress logged")
	}
	// Table 1 and Figure 8 need no pipeline runs.
	if tbl := s.Table1(); len(tbl.Rows) != 8 {
		t.Errorf("table 1 rows = %d", len(tbl.Rows))
	}
	if tbl := s.Figure8(); len(tbl.Rows) != 5 {
		t.Errorf("figure 8 rows = %d", len(tbl.Rows))
	}
}

func TestTimingGroundTruthBounded(t *testing.T) {
	s := tinySession(t)
	s.Cfg.TimingPoints = 2
	td := s.TB.Synthetic[0]
	gt := s.timingGroundTruth(td)
	if gt.NumOutliers() >= td.GroundTruth.NumOutliers() {
		t.Errorf("bounded ground truth not smaller: %d of %d", gt.NumOutliers(), td.GroundTruth.NumOutliers())
	}
	// Every dimensionality the full ground truth covers must stay covered
	// (up to the per-dim limit), so the timing grid has no empty cells.
	for _, dim := range s.explanationDims(true) {
		full := len(td.GroundTruth.PointsExplainedAt(dim))
		got := len(gt.PointsExplainedAt(dim))
		want := full
		if want > 2 {
			want = 2
		}
		if got < want {
			t.Errorf("dim %d: %d timed points, want ≥ %d", dim, got, want)
		}
	}
	s.Cfg.TimingPoints = 1000
	if got := s.timingGroundTruth(td); got.NumOutliers() != td.GroundTruth.NumOutliers() {
		t.Error("limit above outlier count must keep all")
	}
}

func TestAblationsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ablation pipelines")
	}
	s := tinySession(t)
	tbl := s.Ablations(context.Background())
	// 5 choices × 2 arms.
	if len(tbl.Rows) != 10 {
		t.Fatalf("%d ablation rows, want 10", len(tbl.Rows))
	}
	choices := map[string]int{}
	for _, row := range tbl.Rows {
		choices[row[0]]++
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
	for choice, n := range choices {
		if n != 2 {
			t.Errorf("choice %q has %d arms", choice, n)
		}
	}
}

func TestConformanceTableStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines")
	}
	s := tinySession(t)
	tbl := s.Conformance(context.Background())
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d conformance rows, want 8", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 4 {
			t.Fatalf("ragged row %v", row)
		}
		if row[2] != "PASS" && row[2] != "FAIL" {
			t.Errorf("verdict %q", row[2])
		}
		if row[3] == "" {
			t.Errorf("claim %q lacks evidence", row[0])
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:     "Figure X",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x|y"}},
		Notes:  []string{"careful"},
	}
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### Figure X — demo", "| a | b |", "|---|---|", `x\|y`, "*careful*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestDetectorFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs pipelines")
	}
	s := tinySession(t)
	s.Cfg.DetectorFilter = []string{"LOF"}
	results := s.PointResults(context.Background())
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.Detector != "LOF" {
			t.Errorf("detector %s leaked through the filter", r.Detector)
		}
	}
	// 2 synthetic datasets × 2 explainers × 3 dims + 1 real-like × 2 × 2.
	if len(results) != 2*2*3+1*2*2 {
		t.Errorf("%d results (datasets × Beam/RefOut × dims)", len(results))
	}
}

func TestMeanRecallMetricRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs pipelines")
	}
	s := tinySession(t)
	s.Cfg.UseMeanRecall = true
	s.Cfg.DetectorFilter = []string{"LOF"}
	tbl := s.Figure9(context.Background())
	if !strings.Contains(tbl.Header[3], "recall") {
		t.Errorf("header %v lacks recall columns", tbl.Header)
	}
	// Recall of Beam+LOF on the easy tiny-8d 2d cell should be 1.
	for _, row := range tbl.Rows {
		if row[0] == "tiny-8d" && row[1] == "Beam_FX" && row[2] == "LOF" && row[3] != "1.000" {
			t.Errorf("Beam+LOF recall@2d = %s", row[3])
		}
	}
}
