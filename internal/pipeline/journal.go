package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"anex/internal/metrics"
)

// Journal is an append-only JSON-lines checkpoint of completed pipeline
// cells. Long grid runs and experiment sessions record every finished cell
// as one line; a fresh invocation with the same spec and journal skips the
// recorded cells and recomputes only what is missing, so an interrupted run
// resumes where it stopped instead of starting over.
//
// Cells are keyed by (kind, dataset, detector, explainer, dimension), where
// kind namespaces the producer ("grid" for RunGrid, the experiment table
// kinds for the experiments package). Entries store the full Result —
// aggregate metrics, timings, per-point evaluations, and a deterministic
// error if the cell failed — so a resumed run is complete, not just
// summarised. Cells that failed with a context error (cancellation, cell
// timeout) are NOT recorded: they carry no reusable work and must be
// recomputed on resume.
//
// A Journal is safe for concurrent use by the grid's workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]Result
}

// journalEntry is the on-disk form of one completed cell.
type journalEntry struct {
	Kind            string                `json:"kind"`
	Dataset         string                `json:"dataset"`
	Detector        string                `json:"detector"`
	Explainer       string                `json:"explainer"`
	TargetDim       int                   `json:"target_dim"`
	MAP             float64               `json:"map"`
	MeanRecall      float64               `json:"mean_recall"`
	PointsEvaluated int                   `json:"points_evaluated"`
	DurationNanos   int64                 `json:"duration_ns"`
	ScoringNanos    int64                 `json:"scoring_ns,omitempty"`
	SearchNanos     int64                 `json:"search_ns,omitempty"`
	EvalNanos       int64                 `json:"eval_ns,omitempty"`
	PerPoint        []metrics.PointResult `json:"per_point,omitempty"`
	Err             string                `json:"err,omitempty"`
}

func journalKey(kind, dataset, detector, explainer string, dim int) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d", kind, dataset, detector, explainer, dim)
}

// OpenJournal opens (creating if absent) the journal at path and loads every
// complete entry already recorded. A torn final line — the signature of a
// run killed mid-write — is truncated away, so a journal survives its
// writer crashing; a malformed line anywhere else is an error, and so is a
// complete line whose target_dim is missing or below 1.
func OpenJournal(path string) (*Journal, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	done := make(map[string]Result)
	goodEnd := 0 // byte offset just past the last complete, parseable line
	offset := 0
	lineNo := 0
	for offset < len(raw) {
		nl := bytes.IndexByte(raw[offset:], '\n')
		if nl < 0 {
			// No trailing newline: a torn write. Drop the fragment.
			break
		}
		line := raw[offset : offset+nl]
		offset += nl + 1
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			goodEnd = offset
			continue
		}
		var e journalEntry
		if uerr := json.Unmarshal(line, &e); uerr != nil {
			if offset >= len(raw) {
				// Torn final line that happens to end in a newline-containing
				// fragment boundary; drop it like the no-newline case.
				break
			}
			return nil, fmt.Errorf("journal: %s line %d: %w", path, lineNo, uerr)
		}
		if e.TargetDim < 1 {
			// Every cell kind journals a dimension ≥ 2. A line without one
			// (a file written under another schema) would load under a key
			// no Lookup asks for, and the run would silently recompute.
			return nil, fmt.Errorf("journal: %s line %d: no target_dim ≥ 1", path, lineNo)
		}
		done[journalKey(e.Kind, e.Dataset, e.Detector, e.Explainer, e.TargetDim)] = e.toResult()
		goodEnd = offset
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(int64(goodEnd)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(int64(goodEnd), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, done: done}, nil
}

func (e journalEntry) toResult() Result {
	res := Result{
		Dataset:         e.Dataset,
		Detector:        e.Detector,
		Explainer:       e.Explainer,
		TargetDim:       e.TargetDim,
		MAP:             e.MAP,
		MeanRecall:      e.MeanRecall,
		PointsEvaluated: e.PointsEvaluated,
		Duration:        time.Duration(e.DurationNanos),
		ScoringTime:     time.Duration(e.ScoringNanos),
		SearchTime:      time.Duration(e.SearchNanos),
		EvalTime:        time.Duration(e.EvalNanos),
		PerPoint:        e.PerPoint,
	}
	if e.Err != "" {
		res.Err = errors.New(e.Err)
	}
	return res
}

// Lookup returns the recorded result of the keyed cell, if any.
func (j *Journal) Lookup(kind, dataset, detector, explainer string, dim int) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.done[journalKey(kind, dataset, detector, explainer, dim)]
	return res, ok
}

// Len returns the number of recorded cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends the result as one journal line and makes it visible to
// Lookup. The line is flushed to the OS before Record returns, so a cell is
// either fully journaled or (after a crash) its torn line is discarded by
// the next OpenJournal.
func (j *Journal) Record(kind string, res Result) error {
	e := journalEntry{
		Kind:            kind,
		Dataset:         res.Dataset,
		Detector:        res.Detector,
		Explainer:       res.Explainer,
		TargetDim:       res.TargetDim,
		MAP:             res.MAP,
		MeanRecall:      res.MeanRecall,
		PointsEvaluated: res.PointsEvaluated,
		DurationNanos:   int64(res.Duration),
		ScoringNanos:    int64(res.ScoringTime),
		SearchNanos:     int64(res.SearchTime),
		EvalNanos:       int64(res.EvalTime),
		PerPoint:        res.PerPoint,
	}
	if res.Err != nil {
		e.Err = res.Err.Error()
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	raw = append(raw, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(raw); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	j.done[journalKey(e.Kind, e.Dataset, e.Detector, e.Explainer, e.TargetDim)] = e.toResult()
	return nil
}

// Close closes the underlying file. The journal must not be used afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
