// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process — a cold Figure-9/10 grid (grid_10d), warm anexd
// traffic over loopback HTTP (serve_20d) or a sliding-window stream
// (stream_20d) — and prints, as the last line of standard output, one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones of a separate traced phase (see README.md). The line
// before it describes the run: host, seed, tail percentile and sample count.
//
//	go run . -workload grid_10d -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Workers is the thread budget: GOMAXPROCS, pinned to the CPU count.
	Workers int
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*report, *runInfo, error){
	"grid_10d":   runGrid,
	"serve_20d":  runServe,
	"stream_20d": runStream,
}

// runInfo is the provenance line printed before the result.
type runInfo struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	TailPercentile float64 `json:"tail_percentile"`
	LatencySamples int     `json:"latency_samples"`
	Host           host    `json:"host"`
	// Counts are the exact program counters of one op (or of set-up),
	// repeated identically across runs at one seed.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Check describes the correctness verdict.
	Check string `json:"check"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: grid_10d, serve_20d or stream_20d")
	seed := fs.Int64("seed", 1, "workload seed; all inputs are generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload grid_10d|serve_20d|stream_20d, -seconds > 0, -trace 0|1\n")
		return 2
	}
	// Pin the thread budget to the machine's CPU count, so a run never
	// depends on an inherited GOMAXPROCS.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workers: workers}
	// Leave every run the same slack to finish its checks.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	rep, info, err := runner(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	info.Workload, info.Seed, info.Seconds, info.Trace = *name, *seed, *seconds, cfg.Trace
	info.Host = hostInfo(workers)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", *name, info.Check)
		return 1
	}
	return 0
}
