package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anex"
)

// writeTestbed generates a small planted dataset + ground truth on disk.
func writeTestbed(t *testing.T) (dataPath, gtPath string) {
	t.Helper()
	ds, gt, err := anex.GenerateSubspaceOutliers(anex.SubspaceOutlierConfig{
		Name: "eval-test", TotalDims: 6, SubspaceDims: []int{2}, N: 150,
		OutliersPerSubspace: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "data.csv")
	if err := ds.SaveCSV(dataPath); err != nil {
		t.Fatal(err)
	}
	gtPath = filepath.Join(dir, "gt.json")
	f, err := os.Create(gtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dataPath, gtPath
}

func TestRunEvaluatesGrid(t *testing.T) {
	dataPath, gtPath := writeTestbed(t)
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, io.Discard, dataPath, gtPath, "2", 1, 1, 10, 0, 0, "", 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Beam_FX", "RefOut", "LookOut", "HiCS_FX", "LOF", "iForest", "12 pipeline cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Beam+LOF must find the single planted pair: its MAP row should be
	// 1.000 on this easy dataset.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Beam_FX") && strings.Contains(line, "LOF") && strings.Contains(line, "1.000") {
			found = true
		}
	}
	if !found {
		t.Errorf("Beam+LOF not at MAP 1.000:\n%s", out)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	dataPath, gtPath := writeTestbed(t)
	cases := []struct{ name, data, gt, dims string }{
		{"missing data", "", gtPath, "2"},
		{"missing gt", dataPath, "", "2"},
		{"bad dim", dataPath, gtPath, "1"},
		{"dim too high", dataPath, gtPath, "99"},
		{"nonsense dim", dataPath, gtPath, "x"},
		{"missing file", "/nope.csv", gtPath, "2"},
		{"missing gt file", dataPath, "/nope.json", "2"},
	}
	for _, c := range cases {
		if err := run(context.Background(), io.Discard, io.Discard, c.data, c.gt, c.dims, 1, 1, 0, 0, 0, "", 0); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestRunJournalResume(t *testing.T) {
	dataPath, gtPath := writeTestbed(t)
	journalPath := filepath.Join(t.TempDir(), "eval.journal")
	// The resume note goes to stderr; capture both streams.
	runBoth := func() (stdout, stderr string, err error) {
		var out, errOut bytes.Buffer
		err = run(context.Background(), &out, &errOut, dataPath, gtPath, "2", 1, 1, 10, 0, 0, journalPath, 0)
		return out.String(), errOut.String(), err
	}
	first, firstErr, err := runBoth()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(firstErr, "resuming:") {
		t.Errorf("fresh journal claimed a resume:\n%s", firstErr)
	}
	second, secondErr, err := runBoth()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(secondErr, "resuming: 12 cells") {
		t.Errorf("second run did not resume from the journal:\n%s", secondErr)
	}
	// The resumed run reproduces the same result table, row for row — the
	// journal replays recorded timings too. Only the per-invocation total
	// line below the table may differ.
	tableOf := func(out string) string {
		start := strings.Index(out, "dim")
		end := strings.Index(out, "total ")
		if start < 0 || end < 0 || end < start {
			return out
		}
		return out[start:end]
	}
	if tableOf(first) != tableOf(second) {
		t.Errorf("resumed table differs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}
