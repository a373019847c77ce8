// Command anexplain explains the outlyingness of points in a CSV dataset:
// it ranks, for each requested point, the feature subspaces where that
// point deviates most from the rest of the data.
//
// Usage:
//
//	anexplain -data data.csv -points 17,42 [-algo beam|refout|lookout|hics]
//	          [-detector lof|abod|iforest] [-dim 2] [-top 5] [-seed N]
//	          [-workers N]
//
// Point algorithms (beam, refout) explain each point individually; summary
// algorithms (lookout, hics) produce one ranked list jointly covering all
// the points.
//
// anexplain is a thin client of the same explanation engine that powers
// the anexd server: it registers the CSV, runs one ExplainRequest, and
// prints the response — so its output is identical, subspace for subspace
// and byte for byte, to what a POST /v1/explain with the same knobs
// returns.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"anex"
	"anex/internal/clix"
	"anex/internal/server"
	"anex/internal/subspace"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV dataset (header row with feature names)")
		points   = flag.String("points", "", "comma-separated point indices to explain")
		algo     = flag.String("algo", "beam", "explanation algorithm: beam, refout, lookout or hics")
		detName  = flag.String("detector", "lof", "outlier detector: lof, abod or iforest")
		dim      = flag.Int("dim", 2, "explanation dimensionality")
		top      = flag.Int("top", 5, "number of subspaces to print")
		seed     = flag.Int64("seed", 1, "random seed for stochastic algorithms")
		plot     = flag.Bool("plot", false, "render the top explaining subspace of each point as a terminal scatter plot (2d explanations only)")
		workers  = flag.Int("workers", 0, "detector scoring workers (0 = GOMAXPROCS); results are identical at any count")
	)
	flag.Parse()

	clix.Main("anexplain", func(ctx context.Context) error {
		return run(ctx, os.Stdout, *dataPath, *points, *algo, *detName, *dim, *top, *seed, *plot, *workers)
	})
}

// run explains the points and writes the ranked lists (and plots) to out.
func run(ctx context.Context, out io.Writer, dataPath, pointsArg, algo, detName string, dim, top int, seed int64, plotTop bool, workers int) error {
	if dataPath == "" {
		return fmt.Errorf("missing -data")
	}
	if pointsArg == "" {
		return fmt.Errorf("missing -points")
	}
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		return err
	}
	var points []int
	for _, part := range strings.Split(pointsArg, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad point index %q: %w", part, err)
		}
		points = append(points, p)
	}

	eng := server.NewEngine(server.EngineConfig{Workers: workers})
	name := strings.TrimSuffix(dataPath, ".csv")
	if _, err := eng.RegisterCSV(name, raw, true); err != nil {
		return err
	}
	resp, err := eng.Explain(ctx, server.ExplainRequest{
		Dataset:  name,
		Points:   points,
		Algo:     algo,
		Detector: detName,
		Dim:      dim,
		Top:      top,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	return printResponse(out, eng, resp, points, top, plotTop)
}

// printResponse renders an engine response in the CLI's text format;
// TestOutputMatchesAnexd pins this output against a live anexd's answer.
func printResponse(out io.Writer, eng *server.Engine, resp *server.ExplainResponse, points []int, top int, plotTop bool) error {
	printList := func(list []server.ScoredSubspaceJSON) {
		if len(list) > top {
			list = list[:top]
		}
		for rank, s := range list {
			fmt.Fprintf(out, "  %2d. {%s}  score %.4f\n", rank+1, strings.Join(s.Names, ", "), s.Score)
		}
	}

	maybePlot := func(list []server.ScoredSubspaceJSON, highlight []int, title string) error {
		if !plotTop || len(list) == 0 || len(list[0].Features) != 2 {
			return nil
		}
		ds, _, ok := eng.Dataset(resp.Dataset)
		if !ok {
			return fmt.Errorf("dataset %q vanished from the engine", resp.Dataset)
		}
		return anex.PlotSubspace(out, ds, subspace.Subspace(list[0].Features), anex.PlotOptions{
			Highlight: highlight,
			Title:     title,
		})
	}

	for _, pe := range resp.Points {
		fmt.Fprintf(out, "point %d — %dd subspaces ranked by %s with %s:\n", pe.Point, resp.Dim, resp.AlgoName, resp.DetectorName)
		printList(pe.Subspaces)
		if err := maybePlot(pe.Subspaces, []int{pe.Point}, fmt.Sprintf("point %d in its top subspace", pe.Point)); err != nil {
			return err
		}
	}
	if resp.Summary != nil {
		fmt.Fprintf(out, "summary for points %v — %dd subspaces ranked by %s with %s:\n", points, resp.Dim, resp.AlgoName, resp.DetectorName)
		printList(resp.Summary)
		if err := maybePlot(resp.Summary, points, "points of interest in the top summary subspace"); err != nil {
			return err
		}
	}
	return nil
}
