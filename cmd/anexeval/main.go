// Command anexeval runs the paper's full detector × explainer pipeline grid
// (Figure 7) against YOUR dataset: a CSV of numeric features plus a
// ground-truth JSON mapping outlier indices to their relevant subspaces
// (the format written by anexgen / dataset.GroundTruth.WriteJSON). It
// prints MAP, mean recall and runtime per pipeline — the tool for deciding
// which detector/explainer combination fits a new dataset. Cells share
// work (neighbourhoods, HiCS's detector-free contrast search), so a cell's
// runtime is its share of the grid: the first HiCS_FX cell to start
// carries the search (to the largest -dims value), the other HiCS_FX cells
// their ranking.
//
// Interrupting a run (SIGINT/SIGTERM) stops scheduling new cells, prints
// the cells that finished, and — with -journal — leaves a checkpoint file
// from which an identical re-invocation resumes, skipping completed cells.
//
// Usage:
//
//	anexeval -data d.csv -gt d.groundtruth.json [-dims 2,3] [-seed N]
//	         [-workers N] [-topk 30] [-cache-mb 256] [-plane-mb 256]
//	         [-journal run.journal] [-cell-timeout 5m]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"anex"
	"anex/internal/clix"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "CSV dataset (header row with feature names)")
		gtPath      = flag.String("gt", "", "ground-truth JSON (point index → relevant subspace keys)")
		dims        = flag.String("dims", "2", "comma-separated explanation dimensionalities")
		seed        = flag.Int64("seed", 1, "random seed for stochastic algorithms")
		workers     = flag.Int("workers", 0, "parallel pipeline workers (0 = GOMAXPROCS)")
		topK        = flag.Int("topk", 0, "result-list bound per explainer (0 = paper default 100)")
		cacheMB     = flag.Int("cache-mb", 0, "byte budget (MiB) of each detector's shared score memo; LRU-evicts past it (0 = default 256)")
		planeMB     = flag.Int("plane-mb", 0, "byte budget (MiB) of the grid's shared neighbourhood plane (0 = default 256)")
		journalPath = flag.String("journal", "", "checkpoint completed cells to this file and resume from it")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell deadline (0 = none); timed-out cells report an error, the rest of the grid completes")
	)
	flag.Parse()

	clix.Main("anexeval", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, *dataPath, *gtPath, *dims, *seed, *workers, *topK, *cacheMB, *planeMB, *journalPath, *cellTimeout)
	})
}

// run evaluates the grid, writing the result table to out and resume
// notes to errOut.
func run(ctx context.Context, out, errOut io.Writer, dataPath, gtPath, dimsArg string, seed int64, workers, topK, cacheMB, planeMB int, journalPath string, cellTimeout time.Duration) error {
	if dataPath == "" || gtPath == "" {
		return fmt.Errorf("both -data and -gt are required")
	}
	ds, err := anex.LoadCSV(strings.TrimSuffix(dataPath, ".csv"), dataPath)
	if err != nil {
		return err
	}
	f, err := os.Open(gtPath)
	if err != nil {
		return err
	}
	gt, err := readGroundTruth(f)
	f.Close()
	if err != nil {
		return err
	}
	if gt.NumOutliers() == 0 {
		return fmt.Errorf("ground truth contains no outliers")
	}
	var dims []int
	for _, part := range strings.Split(dimsArg, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 2 || d > ds.D() {
			return fmt.Errorf("bad dimensionality %q (want 2..%d)", part, ds.D())
		}
		dims = append(dims, d)
	}

	var journal *anex.Journal
	if journalPath != "" {
		journal, err = anex.OpenJournal(journalPath)
		if err != nil {
			return err
		}
		defer journal.Close()
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(errOut, "resuming: %d cells journalled in %s\n", n, journalPath)
		}
	}

	fmt.Fprintf(out, "%s: %d points × %d features, %d outliers; dims %v\n\n",
		ds.Name(), ds.N(), ds.D(), gt.NumOutliers(), dims)

	start := time.Now()
	results, jerr := anex.RunGrid(ctx, anex.GridSpec{
		Dataset:     ds,
		GroundTruth: gt,
		Dims:        dims,
		Seed:        seed,
		Options:     anex.PipelineOptions{TopK: topK, CacheBytes: int64(cacheMB) << 20},
		Cached:      true,
		Plane:       anex.NewNeighborhoodPlane(int64(planeMB) << 20),
		Workers:     workers,
		Journal:     journal,
		CellTimeout: cellTimeout,
	})
	fmt.Fprintf(out, "%-4s %-10s %-9s %8s %8s %12s %12s %12s\n", "dim", "explainer", "detector", "MAP", "recall", "runtime", "scoring", "search")
	fmt.Fprintln(out, strings.Repeat("-", 82))
	completed := 0
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(out, "%-4d %-10s %-9s %8s %8s %12s %12s %12s  (%v)\n", r.TargetDim, r.Explainer, r.Detector, "err", "err", "-", "-", "-", r.Err)
			continue
		}
		completed++
		if r.PointsEvaluated == 0 {
			fmt.Fprintf(out, "%-4d %-10s %-9s %8s %8s %12s %12s %12s\n", r.TargetDim, r.Explainer, r.Detector, "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(out, "%-4d %-10s %-9s %8.3f %8.3f %12s %12s %12s\n",
			r.TargetDim, r.Explainer, r.Detector, r.MAP, r.MeanRecall,
			r.Duration.Round(time.Millisecond), r.ScoringTime.Round(time.Millisecond), r.SearchTime.Round(time.Millisecond))
	}
	fmt.Fprintf(out, "\ntotal %s over %d pipeline cells (%d completed)\n", time.Since(start).Round(time.Millisecond), len(results), completed)
	if jerr != nil {
		return fmt.Errorf("journal: %w", jerr)
	}
	if err := ctx.Err(); err != nil {
		if journalPath != "" {
			fmt.Fprintf(errOut, "interrupted: re-run the same command to resume from %s\n", journalPath)
		}
		return err
	}
	return nil
}

// readGroundTruth parses the JSON format of dataset.GroundTruth.
func readGroundTruth(f *os.File) (*anex.GroundTruth, error) {
	return anex.ReadGroundTruthJSON(f)
}
