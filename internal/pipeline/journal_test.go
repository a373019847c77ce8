package pipeline

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anex/internal/metrics"
)

func sampleResult(detName string) Result {
	return Result{
		Dataset:         "jtest",
		Detector:        detName,
		Explainer:       "Beam_FX",
		TargetDim:       2,
		MAP:             0.625,
		MeanRecall:      0.5,
		PointsEvaluated: 2,
		Duration:        3 * time.Millisecond,
		PerPoint: []metrics.PointResult{
			{Point: 4, AveP: 0.75, Recall: 0.5, Relevant: 2, Returned: 3},
			{Point: 9, AveP: 0.5, Recall: 0.5, Relevant: 2, Returned: 3},
		},
	}
}

func TestJournalRecordLookupRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult("LOF")
	if err := j.Record("grid", want); err != nil {
		t.Fatal(err)
	}
	failed := sampleResult("iForest")
	failed.Err = errors.New("deterministic failure")
	if err := j.Record("grid", failed); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", j2.Len())
	}
	got, ok := j2.Lookup("grid", "jtest", "LOF", "Beam_FX", 2)
	if !ok {
		t.Fatal("recorded cell not found after reopen")
	}
	if got.MAP != want.MAP || got.Duration != want.Duration || len(got.PerPoint) != 2 ||
		got.PerPoint[1] != want.PerPoint[1] {
		t.Errorf("round trip lost data: %+v", got)
	}
	gotFailed, ok := j2.Lookup("grid", "jtest", "iForest", "Beam_FX", 2)
	if !ok || gotFailed.Err == nil || !strings.Contains(gotFailed.Err.Error(), "deterministic failure") {
		t.Errorf("failure entry: ok=%v err=%v", ok, gotFailed.Err)
	}
	// Kind namespaces the key: the same cell under another kind is absent.
	if _, ok := j2.Lookup("point", "jtest", "LOF", "Beam_FX", 2); ok {
		t.Error("kind not namespaced")
	}
}

// TestOpenJournalTruncatesTornTail: a journal whose writer died mid-line
// reopens with the torn fragment dropped, and appends continue cleanly from
// the last complete entry.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("grid", sampleResult("LOF")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a line, no newline.
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), []byte(`{"kind":"grid","dataset":"jte`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	if j2.Len() != 1 {
		t.Fatalf("torn journal kept %d entries, want 1", j2.Len())
	}
	if err := j2.Record("grid", sampleResult("LODA")); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Errorf("after truncate+append: %d entries, want 2", j3.Len())
	}
}

// TestOpenJournalRejectsCorruptionMidFile: malformed lines anywhere but the
// tail are data corruption, not a crash signature, and must error loudly.
func TestOpenJournalRejectsCorruptionMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("grid", sampleResult("LOF")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("not json at all\n"), intact...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Error("mid-file corruption silently accepted")
	}
}

// TestOpenJournalRejectsMissingTargetDim: a complete line that carries no
// target_dim (here an entry written under the old "dim" field name) would
// load under a key no Lookup asks for, so the run would recompute and
// append without a word. It must fail to open, naming the path and line.
func TestOpenJournalRejectsMissingTargetDim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old-schema")
	line := `{"kind":"point","dataset":"hics-8d","detector":"LOF","explainer":"Beam_FX","dim":2,"map":1,"mean_recall":1,"points_evaluated":4,"duration_ns":17269673}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(path)
	if err == nil {
		t.Fatal(`a "dim": 2 line without target_dim opened silently`)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "line 1") {
		t.Fatalf("error %q does not name the path and line", msg)
	}
}
