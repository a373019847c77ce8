package main

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"anex"
)

// writeTestCSV builds the quickstart geometry (coupled pair + noise) with
// an anomaly at index 0 and saves it as CSV.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	const n = 150
	rows := make([][]float64, n)
	for i := range rows {
		base := 0.25
		if rng.Intn(2) == 1 {
			base = 0.75
		}
		rows[i] = []float64{
			base + rng.NormFloat64()*0.03,
			base + rng.NormFloat64()*0.03,
			rng.Float64(),
			rng.Float64(),
		}
	}
	rows[0] = []float64{0.25, 0.75, 0.5, 0.5}
	ds, err := anex.FromRows("test", rows, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := ds.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOut runs the CLI and returns what it wrote.
func runOut(path, points, algo, det string, top int, plot bool) (string, error) {
	var buf bytes.Buffer
	err := run(context.Background(), &buf, path, points, algo, det, 2, top, 1, plot, 1)
	return buf.String(), err
}

func TestRunBeamExplainsPlantedPair(t *testing.T) {
	path := writeTestCSV(t)
	out, err := runOut(path, "0", "beam", "lof", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "point 0") || !strings.Contains(out, "{a, b}") {
		t.Errorf("output missing planted pair:\n%s", out)
	}
}

func TestRunSummaryAlgorithms(t *testing.T) {
	path := writeTestCSV(t)
	for _, algo := range []string{"lookout", "hics"} {
		out, err := runOut(path, "0", algo, "lof", 3, false)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "summary for points") {
			t.Errorf("%s output: %s", algo, out)
		}
	}
}

func TestRunAllDetectors(t *testing.T) {
	path := writeTestCSV(t)
	for _, det := range []string{"lof", "abod", "iforest"} {
		if _, err := runOut(path, "0", "refout", det, 2, false); err != nil {
			t.Fatalf("%s: %v", det, err)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	path := writeTestCSV(t)
	cases := []struct{ name, path, points, algo, det string }{
		{"missing data", "", "0", "beam", "lof"},
		{"missing points", path, "", "beam", "lof"},
		{"bad point", path, "x", "beam", "lof"},
		{"bad algo", path, "0", "nope", "lof"},
		{"bad detector", path, "0", "beam", "nope"},
		{"missing file", "/nonexistent.csv", "0", "beam", "lof"},
	}
	for _, c := range cases {
		if _, err := runOut(c.path, c.points, c.algo, c.det, 3, false); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestRunWithPlot(t *testing.T) {
	path := writeTestCSV(t)
	out, err := runOut(path, "0", "beam", "lof", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "✗") {
		t.Errorf("plot marker missing:\n%s", out)
	}
	if !strings.Contains(out, "└") {
		t.Errorf("plot frame missing:\n%s", out)
	}
}
