package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/stats"
	"anex/internal/stream"
	"anex/internal/synth"
)

// selfTolerance is how far the self times of one serial op may sum from
// its wall time: clock reads between spans.
const selfTolerance = 0.01

func TestCoveredUnionsOverlaps(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
	self := selfTimes(append([]span{parent}, kids...))
	if self[1] != 60 {
		t.Fatalf("parent self = %d, want 60", self[1])
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(append([]float64(nil), xs...), 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(append([]float64(nil), xs...), 75); got != 4 {
		t.Fatalf("p75 = %v", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Fatalf("a failed op must miss the tail: %v", got)
	}
}

// Throughput and CPU per op are medians over windows: one slow window
// does not move them, and a phase without a complete window falls back to
// its whole-phase figures.
func TestWindowMedians(t *testing.T) {
	lr := loopResult{
		Ops: 35, Wall: 5 * time.Second, CPU: 350 * time.Millisecond, WindowOps: 10,
		Windows: []window{
			{time.Second, 100 * time.Millisecond},
			{4 * time.Second, 200 * time.Millisecond},
			{time.Second, 10 * time.Millisecond},
		},
	}
	if got := lr.throughput(); got != 10 {
		t.Fatalf("throughput = %v, want 10", got)
	}
	if got := lr.cpuPerOp(); got != 10 {
		t.Fatalf("cpu per op = %v ms, want 10", got)
	}
	lr.Windows = nil
	if got := lr.throughput(); got != 7 {
		t.Fatalf("whole-phase throughput = %v, want 7", got)
	}
	if got := lr.cpuPerOp(); got != 10 {
		t.Fatalf("whole-phase cpu per op = %v ms, want 10", got)
	}
	lr = closedLoop(30*time.Millisecond, 3, func(int) ([]float64, bool) {
		time.Sleep(time.Millisecond)
		return []float64{1}, false
	})
	if len(lr.Windows) != lr.Ops/3 || len(lr.Samples) != lr.Ops {
		t.Fatalf("%d ops gave %d windows and %d samples", lr.Ops, len(lr.Windows), len(lr.Samples))
	}
}

// The recorder sits between a memo and a kNN detector: it must forward
// plane injection and moments, or wrapping would change the program.
func TestRecorderForwardsStatScorerAndSetNeighbors(t *testing.T) {
	ds, _, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name: "fwd", TotalDims: 4, SubspaceDims: []int{2}, N: 80, OutliersPerSubspace: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := ds.FullView()
	lof := detector.NewLOF(detector.DefaultLOFK)
	plane := neighbors.NewPlane(0)
	rec := newRecorder(lof, detector.DefaultLOFK, newViewLog(nil))
	rec.SetNeighbors(plane)
	if lof.Neighbors != plane {
		t.Fatal("SetNeighbors was not forwarded")
	}
	s, mean, variance, err := rec.ScoresWithStats(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	wm, wv := stats.PopulationMeanVariance(s)
	if mean != wm || variance != wv {
		t.Fatal("moments differ from a direct standardisation")
	}
	if plane.Stats().Queries != 1 {
		t.Fatal("the wrapped detector did not query the injected plane")
	}

	memo := detector.NewCached(detector.NewLOF(detector.DefaultLOFK))
	var sc core.StatScorer = newRecorder(memo, detector.DefaultLOFK, newViewLog(nil))
	if _, _, _, err := sc.ScoresWithStats(context.Background(), v); err != nil {
		t.Fatal(err)
	}
	if memo.CacheStats().Calls != 1 {
		t.Fatal("ScoresWithStats was not forwarded to the inner StatScorer")
	}
}

// The monitor reaches the window engine by type-asserting its detector
// (WindowScorer, or *detector.Cached around one); a recorder in between
// would silently switch it to cold rebuilds.
func TestStreamDetectorStaysUnwrapped(t *testing.T) {
	points, _ := streamData(1)
	r, err := newStreamRun(points, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.m.Close()
	if _, ok := r.det.(detector.WindowScorer); !ok {
		t.Fatalf("stream detector %T is not a WindowScorer", r.det)
	}
	if err := r.fill(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.m.Stats().Incremental {
		t.Fatal("monitor fell back to cold rebuilds")
	}
}

// Tracing must not change what the program computes or the counters it
// moves, and those counters must repeat exactly from run to run.
func TestGridTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	dss, gts, err := gridData(1)
	if err != nil {
		t.Fatal(err)
	}
	workers := 2
	plain, err := runGridOp(ctx, dss[0], gts[0], workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runGridOp(ctx, dss[0], gts[0], workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	log := newViewLog(tr)
	log.setOp(1, 2)
	traced, err := runGridOp(ctx, dss[0], gts[0], workers, log)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameResults(plain.Results, traced.Results); msg != "" {
		t.Fatalf("traced grid: %s", msg)
	}
	if !reflect.DeepEqual(gridCounts(plain), gridCounts(again)) {
		t.Fatalf("counts do not repeat:\n%v\n%v", gridCounts(plain), gridCounts(again))
	}
	if !reflect.DeepEqual(gridCounts(plain), gridCounts(traced)) {
		t.Fatalf("tracing moved the counters:\n%v\n%v", gridCounts(plain), gridCounts(traced))
	}
	led, err := replayViews(ctx, log.take(1), gridKs)
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffCounts(planeCounts(traced.Plane), planeCounts(led.Stats)); msg != "" {
		t.Fatalf("replay: %s", msg)
	}
}

// With one worker every call nests, so self times add up to the op.
func TestGridSelfTimesSumToWall(t *testing.T) {
	ctx := context.Background()
	dss, gts, err := gridData(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	lr, ops := gridPhase(ctx, gridState{dss, gts}, 1, time.Millisecond, tr, newViewLog(tr))
	if lr.Failed != 0 || len(ops) != 1 {
		t.Fatalf("phase: %d ops, %d failed", len(ops), lr.Failed)
	}
	checkSelfSums(t, tr.snapshot())
}

func checkSelfSums(t *testing.T, spans []span) {
	t.Helper()
	sums := opSelfSums(spans)
	if len(sums) == 0 {
		t.Fatal("no ops traced")
	}
	for op, v := range sums {
		wall, self := v[0], v[1]
		if d := math.Abs(float64(self - wall)); d > selfTolerance*float64(wall) {
			t.Fatalf("op %d: self times sum to %v, wall %v", op, self, wall)
		}
	}
}

func TestStreamTracedMatchesUntracedAndReplay(t *testing.T) {
	ctx := context.Background()
	points, _ := streamData(3)
	const strides = 12
	runs := make([]*streamRun, 2)
	tr := newTracer()
	var st0 stream.StreamStats
	for i := range runs {
		r, err := newStreamRun(points, false)
		if err != nil {
			t.Fatal(err)
		}
		defer r.m.Close()
		if err := r.fill(ctx); err != nil {
			t.Fatal(err)
		}
		st0 = r.m.Stats()
		for s := 0; s < strides; s++ {
			var rtr *tracer
			root := int64(0)
			if i == 1 {
				rtr, root = tr, tr.id()
			}
			start := time.Now()
			if err := r.stride(ctx, rtr, root); err != nil {
				t.Fatal(err)
			}
			rtr.add(root, 0, root, "op", start, time.Now(), false)
		}
		runs[i] = r
	}
	if !reflect.DeepEqual(runs[0].alerts, runs[1].alerts) {
		t.Fatal("traced run raised different alerts")
	}
	if !reflect.DeepEqual(streamCounts(runs[0].m.Stats()), streamCounts(runs[1].m.Stats())) {
		t.Fatal("tracing moved the stream counters")
	}
	checkSelfSums(t, tr.snapshot())
	rep := &report{Metrics: map[string]metric{}}
	info := &runInfo{}
	if err := streamLayers(ctx, runs[1], st0, tr, rep, info); err != nil {
		t.Fatal(err)
	}
	if info.Check != "" {
		t.Fatal(info.Check)
	}
	ref, err := streamReference(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	if msg := streamCheck(ref, runs...); msg != "ok" {
		t.Fatal(msg)
	}
}

func TestServeTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("two cold serve set-ups")
	}
	ctx := context.Background()
	in, err := serveData(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := serveSetup(ctx, in, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.stop()
	tr := newTracer()
	traced, err := serveSetup(ctx, in, 2, traceHandler(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer traced.stop()
	if !reflect.DeepEqual(plain.planeAfterSetup, traced.planeAfterSetup) {
		t.Fatalf("set-up counters differ:\n%v\n%v", plain.planeAfterSetup, traced.planeAfterSetup)
	}
	_, a, err := servePhase(ctx, plain, in, 200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := servePhase(ctx, traced, in, 200*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every response of either run must equal the untraced rig's engine.
	want, err := serveAnswers(ctx, plain.engine, in)
	if err != nil {
		t.Fatal(err)
	}
	if msg := serveCheck(want, append(a, b...)); msg != "ok" {
		t.Fatal(msg)
	}
	checkSelfSums(t, tr.snapshot())
	m := map[string]metric{}
	if msg := serveReplayCheck(ctx, in, 2, traced, m); msg != "ok" {
		t.Fatal(msg)
	}
	if m["neighbors.kdtree_views"].Value == 0 || m["neighbors.landmark_views"].Value == 0 {
		t.Fatalf("set-up replay attributed no KD-tree or landmark work: %v", m)
	}
}
