// Command anexbench regenerates the tables and figures of the paper
// "A Comparative Evaluation of Anomaly Explanation Algorithms" (EDBT 2021)
// on a freshly generated testbed.
//
// Usage:
//
//	anexbench [-scale small|paper] [-seed N] [-exp all|table1|figure8|figure9|figure10|figure11|table2|ablation|conformance|stream] [-csv dir] [-quiet] [-workers N] [-cache-mb 256] [-plane-mb 256] [-stats]
//
// The stream experiment (-exp stream; not part of -exp all) benchmarks the
// sliding-window monitor on a synthetic Gaussian stream, running the same
// points through the incremental neighbourhood engine and through a cold
// rebuild per evaluation, verifying the two alert streams are identical,
// and reporting the wall-clock ratio. Its shape is set by the -stream-*
// flags (defaults: the reference workload W=256, stride=64, 20d).
//
// At the default small scale the full run finishes in minutes on a laptop;
// paper scale matches the dataset shapes of the paper's Table 1 and can
// take hours for the heaviest cells, exactly like the original study.
// Interrupting a run (SIGINT/SIGTERM) aborts the in-flight experiment; with
// -journal, completed pipeline cells persist across invocations, so
// re-running the same command resumes where the interrupted run stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"anex/internal/clix"
	"anex/internal/experiments"
	"anex/internal/pipeline"
	"anex/internal/synth"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "small", "testbed scale: small or paper")
		seed      = flag.Int64("seed", 42, "random seed for data generation and stochastic algorithms")
		exp       = flag.String("exp", "all", "experiment to run: all, table1, figure8, figure9, figure10, figure11, table2, ablation, conformance, or stream (not part of all)")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		only      = flag.String("only", "", "comma-separated dataset names to restrict the testbed to (e.g. hics-14d)")
		mdPath    = flag.String("md", "", "also write all rendered tables as one Markdown report to this file")
		journal   = flag.String("journal", "", "persist completed pipeline cells to this file and resume from it (one file per scale+seed)")
		detectors = flag.String("detectors", "", "comma-separated detector names to restrict pipelines to (LOF, FastABOD, iForest)")
		metric    = flag.String("metric", "map", "effectiveness metric for figures 9/10: map or recall")
		workers   = flag.Int("workers", 0, "inner-loop workers per pipeline cell (0 = GOMAXPROCS); results are identical at any count")
		cacheMB   = flag.Int("cache-mb", 0, "byte budget (MiB) of each detector's shared score memo; LRU-evicts past it (0 = default 256)")
		planeMB   = flag.Int("plane-mb", 0, "byte budget (MiB) of the session's shared neighbourhood plane (0 = default 256)")
		stats     = flag.Bool("stats", false, "print neighbourhood-plane and quant-prefilter statistics (hits, dedup factor, scan and survivor fractions) to stderr when the run ends")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a post-GC heap profile to this file when the run ends")

		streamWindow = flag.Int("stream-window", 256, "stream experiment: sliding window size")
		streamStride = flag.Int("stream-stride", 64, "stream experiment: points between evaluations")
		streamDim    = flag.Int("stream-dim", 20, "stream experiment: feature count of the synthetic stream")
		streamPoints = flag.Int("stream-points", 0, "stream experiment: total points to push (0 = window + 50 strides)")
	)
	flag.Parse()

	// anexbench keeps the raw clix primitives instead of clix.Main: profiles
	// must flush on every exit path (os.Exit skips defers) and the resume
	// hint belongs after the "interrupted" line.
	ctx, stop := clix.Context()
	defer stop()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		os.Exit(clix.Report("anexbench", err))
	}

	if strings.EqualFold(*exp, "stream") {
		err = runStream(ctx, os.Stdout, os.Stderr, *seed, *streamWindow, *streamStride, *streamDim, *streamPoints, *workers, *stats)
	} else {
		err = run(ctx, os.Stdout, os.Stderr, *scaleFlag, *seed, *exp, *csvDir, *quiet, *only, *mdPath, *journal, *detectors, *metric, *workers, *cacheMB, *planeMB, *stats)
	}
	// An interrupted run still yields a usable CPU profile.
	stopProfiles()
	code := clix.Report("anexbench", err)
	if code == 130 && *journal != "" {
		fmt.Fprintf(os.Stderr, "re-run the same command to resume from %s\n", *journal)
	}
	os.Exit(code)
}

// startProfiles begins CPU profiling and arranges a heap snapshot, returning
// a stop function that flushes whichever profiles were requested. Empty
// paths disable the corresponding profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anexbench: memprofile:", err)
				return
			}
			// Collect garbage first so the snapshot shows live retention,
			// not whatever the last scoring loop left unswept.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "anexbench: memprofile:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", memPath)
		}
	}, nil
}

// run renders the selected experiments' tables to out; progress, file
// notes and statistics go to errOut.
func run(ctx context.Context, out, errOut io.Writer, scaleFlag string, seed int64, exp, csvDir string, quiet bool, only, mdPath, journalPath, detectors, metric string, workers, cacheMB, planeMB int, stats bool) error {
	scale, err := synth.ParseScale(scaleFlag)
	if err != nil {
		return err
	}
	progress := errOut
	if quiet {
		progress = nil
	}
	var filter []string
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			filter = append(filter, strings.TrimSpace(name))
		}
	}
	if metric != "map" && metric != "recall" {
		return fmt.Errorf("unknown metric %q (want map or recall)", metric)
	}
	var detFilter []string
	if detectors != "" {
		for _, name := range strings.Split(detectors, ",") {
			detFilter = append(detFilter, strings.TrimSpace(name))
		}
	}
	var journal *pipeline.Journal
	if journalPath != "" {
		var err error
		journal, err = pipeline.OpenJournal(journalPath)
		if err != nil {
			return err
		}
		defer journal.Close()
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(errOut, "resuming: %d cells journalled in %s\n", n, journalPath)
		}
	}
	session, err := experiments.NewSession(ctx, experiments.Config{
		Scale:          scale,
		Seed:           seed,
		Progress:       progress,
		DatasetFilter:  filter,
		Journal:        journal,
		DetectorFilter: detFilter,
		UseMeanRecall:  metric == "recall",
		Workers:        workers,
		CacheBytes:     int64(cacheMB) << 20,
		PlaneBytes:     int64(planeMB) << 20,
	})
	if err != nil {
		return err
	}

	type gen struct {
		name  string
		build func(context.Context) *experiments.Table
	}
	gens := []gen{
		{"table1", func(context.Context) *experiments.Table { return session.Table1() }},
		{"figure8", func(context.Context) *experiments.Table { return session.Figure8() }},
		{"figure9", session.Figure9},
		{"figure10", session.Figure10},
		{"figure11", session.Figure11},
		{"table2", session.Table2},
		{"ablation", session.Ablations},
		{"conformance", session.Conformance},
	}

	var md *os.File
	if mdPath != "" {
		var err error
		md, err = os.Create(mdPath)
		if err != nil {
			return err
		}
		defer md.Close()
		fmt.Fprintf(md, "# anexbench report (scale %s, seed %d)\n\n", scale, seed)
	}

	want := strings.ToLower(exp)
	matched := false
	for _, g := range gens {
		if want != "all" && want != g.name {
			continue
		}
		matched = true
		table := g.build(ctx)
		fmt.Fprintln(out)
		if err := table.Render(out); err != nil {
			return err
		}
		if md != nil {
			if err := table.RenderMarkdown(md); err != nil {
				return err
			}
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, g.name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := table.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(errOut, "wrote %s\n", path)
		}
		// An interrupt mid-experiment leaves the remaining tables full of
		// cancelled cells; render what we have and stop cleanly.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want all, table1, figure8, figure9, figure10, figure11, table2, ablation or conformance)", exp)
	}
	if stats {
		ps := session.PlaneStats()
		fmt.Fprintf(errOut, "neighbourhood plane: %s\n", ps)
		if pt := ps.Prune; pt.Indexes > 0 {
			fmt.Fprintf(errOut, "quant prefilter: %d coded indexes (%d code bytes), scanned %d of %d candidates (scan fraction %.3f), rejected %d of %d bound-tested (survivor fraction %.3f)\n",
				pt.Indexes, pt.CodeBytes, pt.Scanned, pt.Candidates, pt.ScanFraction(), pt.QuantRejected, pt.QuantCandidates, pt.SurvivorFraction())
		} else {
			fmt.Fprintln(errOut, "quant prefilter: no wide views coded")
		}
	}
	return nil
}
