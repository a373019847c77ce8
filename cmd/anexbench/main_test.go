package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownScale(t *testing.T) {
	if err := run(context.Background(), io.Discard, io.Discard, "huge", 1, "table1", "", true, "", "", "", "", "map", 1, 0, 0, false); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), io.Discard, io.Discard, "small", 1, "figure99", "", true, "", "", "", "", "map", 1, 0, 0, false); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunTable1AndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the small-scale testbed")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), &out, io.Discard, "small", 1, "table1", dir, true, "", "", "", "", "map", 1, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, "hics-8d") {
		t.Errorf("unexpected output:\n%s", text)
	}
	csvPath := filepath.Join(dir, "table1.csv")
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.Contains(string(data), "dataset,") {
		t.Errorf("CSV malformed: %s", data)
	}
	// figure8 shares the session-generation path.
	if err := run(context.Background(), io.Discard, io.Discard, "small", 1, "figure8", "", true, "", "", "", "", "map", 1, 0, 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunDatasetFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets")
	}
	// A single-dataset filter skips generating the rest (in particular
	// the real-like ground-truth derivation).
	var out bytes.Buffer
	if err := run(context.Background(), &out, io.Discard, "small", 1, "table1", "", true, "hics-8d", "", "", "", "map", 1, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "hics-8d") || strings.Contains(text, "hics-12d") {
		t.Errorf("filter not applied:\n%s", text)
	}
	if err := run(context.Background(), io.Discard, io.Discard, "small", 1, "table1", "", true, "no-such-dataset", "", "", "", "map", 1, 0, 0, false); err == nil {
		t.Error("unmatched filter should fail")
	}
}

func TestRunMarkdownReport(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets")
	}
	dir := t.TempDir()
	mdPath := filepath.Join(dir, "report.md")
	if err := run(context.Background(), io.Discard, io.Discard, "small", 1, "table1", "", true, "hics-8d", mdPath, "", "", "map", 1, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "# anexbench report") || !strings.Contains(text, "### Table 1") {
		t.Errorf("markdown report malformed:\n%s", text)
	}
}
