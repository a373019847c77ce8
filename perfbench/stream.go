package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/stream"
)

// stream_20d: a sliding-window stream.Monitor (W = 1024, stride 256, LOF
// k = 15, Workers 1) over a seeded Gaussian 20d stream with planted
// outliers, replayed cyclically in a closed loop. One op is one stride:
// the pushes up to and including the one that triggers an evaluation. The
// window engine's repair and arrival scan and the window scorer's
// dirty-set rescoring do the work.
//
// The stream repeats every streamPeriod points. A point's alert depends
// only on the windows that contain it (the monitor runs uncapped), so from
// the second cycle on every evaluation's alerts repeat exactly, shifted by
// the period; that is what lets one reference run over two cycles check a
// timed phase of any length.
const (
	streamWindow  = 1024
	streamStride  = 256
	streamDims    = 20
	streamK       = 15
	streamPeriod  = 4 * streamWindow
	streamWarmOps = 96 // untimed strides of set-up
	streamTail    = 75
	// streamWindowOps is the strides of one measuring window: four periods
	// of the stream, so every window does the same work.
	streamWindowOps = 4 * streamPeriod / streamStride
	// One point in streamOutlierEvery is shifted by streamShift in three
	// random dimensions.
	streamOutlierEvery = 32
	streamShift        = 3.5
)

// streamData generates one period of the stream and its planted outliers.
func streamData(seed int64) (points [][]float64, outlier []bool) {
	rng := rand.New(rand.NewSource(seed))
	points = make([][]float64, streamPeriod)
	outlier = make([]bool, streamPeriod)
	for i := range points {
		p := make([]float64, streamDims)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		if rng.Intn(streamOutlierEvery) == 0 {
			outlier[i] = true
			for _, j := range rng.Perm(streamDims)[:3] {
				p[j] += streamShift
			}
		}
		points[i] = p
	}
	return points, outlier
}

// streamRun is one monitor fed from the periodic stream.
type streamRun struct {
	m      *stream.Monitor
	det    core.Detector
	points [][]float64
	next   int // stream position of the next push
	// alerts maps an evaluation's stream position (the count of points
	// pushed when it ran) to the alerts it raised.
	alerts map[int][]stream.Alert
}

func newStreamRun(points [][]float64, noIncremental bool) (*streamRun, error) {
	plane := neighbors.NewPlane(0)
	lof := detector.NewLOF(streamK)
	lof.SetNeighbors(plane)
	m, err := stream.NewMonitor(stream.Config{
		WindowSize: streamWindow, Stride: streamStride, Detector: lof, Plane: plane,
		Workers: 1, NoIncremental: noIncremental,
	})
	if err != nil {
		return nil, err
	}
	return &streamRun{m: m, det: lof, points: points, alerts: map[int][]stream.Alert{}}, nil
}

// push feeds the next point and reports whether it triggered an
// evaluation.
func (r *streamRun) push(ctx context.Context) (bool, error) {
	evals := r.m.Evaluations()
	a, err := r.m.Push(ctx, r.points[r.next%len(r.points)])
	r.next++
	if err != nil {
		return false, err
	}
	if r.m.Evaluations() == evals {
		return false, nil
	}
	if len(a) > 0 {
		r.alerts[r.next] = a
	}
	return true, nil
}

// fill pushes until the first evaluation (the engine's cold seed).
func (r *streamRun) fill(ctx context.Context) error {
	for {
		evaluated, err := r.push(ctx)
		if err != nil || evaluated {
			return err
		}
	}
}

// stride pushes up to and including the next evaluating push. With a
// tracer, each push is a stream.Push span under the op's root.
func (r *streamRun) stride(ctx context.Context, tr *tracer, root int64) error {
	for {
		id := tr.id()
		start := time.Now()
		evaluated, err := r.push(ctx)
		tr.add(id, root, root, "stream.Push", start, time.Now(), false)
		if err != nil || evaluated {
			return err
		}
	}
}

// streamSetup builds a monitor, fills its first window and runs the
// warm-up strides.
func streamSetup(ctx context.Context, seed int64) (*streamRun, error) {
	points, _ := streamData(seed)
	r, err := newStreamRun(points, false)
	if err != nil {
		return nil, err
	}
	if err := r.fill(ctx); err != nil {
		return nil, err
	}
	for i := 0; i < streamWarmOps; i++ {
		if err := r.stride(ctx, nil, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// streamPhase runs strides in a closed loop on one client.
func streamPhase(ctx context.Context, r *streamRun, d time.Duration, tr *tracer) (loopResult, error) {
	var firstErr error
	lr := closedLoop(d, streamWindowOps, func(int) ([]float64, bool) {
		root := tr.id()
		start := time.Now()
		err := r.stride(ctx, tr, root)
		end := time.Now()
		tr.add(root, 0, root, "op", start, end, false)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return []float64{math.Inf(1)}, true
		}
		return []float64{ms(end.Sub(start))}, false
	})
	return lr, firstErr
}

// streamReference runs a NoIncremental monitor over two periods plus a
// window, enough for every point of the second period to see all its
// windows.
func streamReference(ctx context.Context, points [][]float64) (map[int][]stream.Alert, error) {
	r, err := newStreamRun(points, true)
	if err != nil {
		return nil, err
	}
	defer r.m.Close()
	for r.next < 2*streamPeriod+streamWindow {
		if _, err := r.push(ctx); err != nil {
			return nil, err
		}
	}
	return r.alerts, nil
}

// streamExpected maps an evaluation position to the reference position
// with the same alerts: itself within the reference's span, else its
// periodic image in the second period.
func streamExpected(pos int) (refPos, shift int) {
	limit := 2*streamPeriod + streamWindow
	if pos <= limit {
		return pos, 0
	}
	base := streamPeriod + streamWindow
	refPos = base + (pos-base)%streamPeriod
	return refPos, pos - refPos
}

// streamCheck compares every evaluation a run made against the reference,
// bit for bit: sequences (shifted by whole periods), scores and z-scores.
func streamCheck(ref map[int][]stream.Alert, runs ...*streamRun) string {
	for _, r := range runs {
		for pos := streamWindow; pos <= r.next; pos += streamStride {
			refPos, shift := streamExpected(pos)
			got, want := r.alerts[pos], ref[refPos]
			if len(got) != len(want) {
				return fmt.Sprintf("evaluation at %d: %d alerts, reference %d", pos, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Sequence != w.Sequence+shift ||
					math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
					math.Float64bits(g.ZScore) != math.Float64bits(w.ZScore) {
					return fmt.Sprintf("evaluation at %d: alert %d differs from the NoIncremental reference", pos, i)
				}
			}
		}
	}
	return "ok"
}

// streamQuality scores the reference's alerts for the second period
// against the planted outliers: average precision of the alert list
// ranked by z-score (relevant = planted outliers, normalised by their
// count, as the paper's AveP) and the share of planted outliers alerted.
func streamQuality(ref map[int][]stream.Alert, outlier []bool) (ap, recall float64) {
	var alerts []stream.Alert
	for _, as := range ref {
		for _, a := range as {
			if a.Sequence >= streamPeriod && a.Sequence < 2*streamPeriod {
				alerts = append(alerts, a)
			}
		}
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].ZScore != alerts[j].ZScore {
			return alerts[i].ZScore > alerts[j].ZScore
		}
		return alerts[i].Sequence < alerts[j].Sequence
	})
	relevant := 0
	for _, o := range outlier {
		if o {
			relevant++
		}
	}
	hits := 0
	for i, a := range alerts {
		if outlier[a.Sequence%streamPeriod] {
			hits++
			ap += float64(hits) / float64(i+1)
		}
	}
	if relevant == 0 {
		return 0, 0
	}
	return ap / float64(relevant), float64(hits) / float64(relevant)
}

func runStream(ctx context.Context, cfg runConfig) (*report, *runInfo, error) {
	var setups []*streamRun
	run, setupS, err := timeSetup(func() (*streamRun, error) {
		r, err := streamSetup(ctx, cfg.Seed)
		if err == nil {
			setups = append(setups, r)
		}
		return r, err
	}, func(prev *streamRun) { prev.m.Close() })
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer run.m.Close()
	rep := &report{Metrics: map[string]metric{}}
	// Set-up's counters: a fixed number of strides, so they repeat exactly.
	info := &runInfo{TailPercentile: streamTail, Counts: streamCounts(run.m.Stats())}
	phase := time.Duration(cfg.Seconds * float64(time.Second))

	var lr loopResult
	checked := []*streamRun{run}
	if !cfg.Trace {
		if lr, err = streamPhase(ctx, run, phase, nil); err != nil {
			return nil, nil, err
		}
		rep.Metrics = endToEnd(lr, streamTail)
		rep.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		untraced, err := streamPhase(ctx, run, phase/2, nil)
		if err != nil {
			return nil, nil, err
		}
		// The traced phase runs a fresh monitor, so a replay that starts
		// from the same first window reproduces its engine exactly.
		traced, err := newStreamRun(run.points, false)
		if err != nil {
			return nil, nil, err
		}
		defer traced.m.Close()
		if err := traced.fill(ctx); err != nil {
			return nil, nil, err
		}
		st0 := traced.m.Stats()
		tr := newTracer()
		if lr, err = streamPhase(ctx, traced, phase/2, tr); err != nil {
			return nil, nil, err
		}
		rep.Metrics["trace.overhead"] = metric{traceOverhead(untraced, lr), "ratio"}
		if err := streamLayers(ctx, traced, st0, tr, rep, info); err != nil {
			return nil, nil, err
		}
		lr = mergeLoops(untraced, lr)
		checked = append(checked, traced)
		if err := tr.write(fmt.Sprintf("stream_20d-seed%d", cfg.Seed)); err != nil {
			return nil, nil, err
		}
	}
	rep.Attempted, rep.Failed = lr.Ops, lr.Failed
	info.LatencySamples = len(lr.Samples)

	points, outlier := streamData(cfg.Seed)
	ref, err := streamReference(ctx, points)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	verdict := streamCheck(ref, append(checked, setups[0])...)
	if lr.Failed > 0 && verdict == "ok" {
		verdict = fmt.Sprintf("%d strides failed", lr.Failed)
	}
	if info.Check == "" || verdict != "ok" {
		info.Check = verdict
	}
	rep.Correct = info.Check == "ok"
	if !cfg.Trace {
		ap, recall := streamQuality(ref, outlier)
		rep.Metrics["map_mean"] = metric{ap, "ratio"}
		rep.Metrics["recall_mean"] = metric{recall, "ratio"}
	}
	return rep, info, nil
}

// sameWindow checks that the replayed engine ends on the monitor's final
// window: its neighbourhood must equal, bit for bit, a cold kNN of the
// window the monitor holds (point q sits in slot q mod W).
func sameWindow(ctx context.Context, eng *neighbors.WindowEngine, r *streamRun) (string, error) {
	rows := make([][]float64, streamWindow)
	for q := r.next - streamWindow; q < r.next; q++ {
		rows[q%streamWindow] = r.points[q%len(r.points)]
	}
	wantIdx, wantDist, m, err := neighbors.AllKNNFlat(ctx, neighbors.NewIndex(rows), streamK, 1)
	if err != nil {
		return "", err
	}
	idx, dist, mk, stride := eng.Neighborhood()
	if mk != m {
		return fmt.Sprintf("window replay: neighbourhood depth %d, want %d", mk, m), nil
	}
	for i := range rows {
		for j := 0; j < m; j++ {
			if idx[i*stride+j] != wantIdx[i*m+j] || math.Float64bits(dist[i*stride+j]) != math.Float64bits(wantDist[i*m+j]) {
				return fmt.Sprintf("window replay: slot %d's neighbours differ from the monitor's window", i), nil
			}
		}
	}
	return "", nil
}

// streamCounts are a monitor's exact program counters.
func streamCounts(s stream.StreamStats) map[string]int64 {
	return map[string]int64{
		"stream.evaluations":    int64(s.Evaluations),
		"stream.arrivals":       int64(s.Arrivals),
		"stream.survivor_lists": int64(s.SurvivorLists),
		"stream.klist_repairs":  int64(s.KListRepairs),
		"stream.scored":         int64(s.Scored),
		"stream.rescored":       int64(s.Rescored),
		"stream.rebuilds":       int64(s.EngineRebuilds),
	}
}

// streamLayers replays the traced monitor's windows through a fresh
// WindowEngine — seeded with the same first window, then each op's
// arrivals in slot order — timing Apply per op, and checks the replay's
// counters against the monitor's.
func streamLayers(ctx context.Context, r *streamRun, st0 stream.StreamStats, tr *tracer, rep *report, info *runInfo) error {
	spans := tr.snapshot()
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].Start < roots[b].Start })
	push := sumByName(spans, "stream.Push")

	eng := neighbors.NewWindowEngine(streamK, neighbors.DefaultWindowSlack, 1)
	seed := make([]neighbors.WindowArrival, streamWindow)
	for i := range seed {
		seed[i] = neighbors.WindowArrival{Slot: i, Point: r.points[i%len(r.points)]}
	}
	if err := eng.Apply(ctx, seed); err != nil {
		return err
	}
	// A shadow monitor replays each op's pushes right after the engine
	// replays its Apply, so push − apply compares two timings taken under
	// the same conditions (the live pushes ran earlier, on a different
	// heap and host state).
	shadow, err := newStreamRun(r.points, false)
	if err != nil {
		return err
	}
	defer shadow.m.Close()
	if err := shadow.fill(ctx); err != nil {
		return err
	}
	applyMS := map[int64]float64{}
	rescore := map[int64]float64{}
	pos := streamWindow
	for _, root := range roots {
		batch := make([]neighbors.WindowArrival, streamStride)
		for j := range batch {
			q := pos + j
			batch[j] = neighbors.WindowArrival{Slot: q % streamWindow, Point: r.points[q%len(r.points)]}
		}
		pos += streamStride
		start := time.Now()
		if err := eng.Apply(ctx, batch); err != nil {
			return err
		}
		end := time.Now()
		tr.add(tr.id(), 0, root.Op, "neighbors.WindowEngine.Apply", start, end, true)
		applyMS[root.Op] = ms(end.Sub(start))
		start = time.Now()
		if err := shadow.stride(ctx, nil, 0); err != nil {
			return err
		}
		end = time.Now()
		tr.add(tr.id(), 0, root.Op, "stream.Push.replay", start, end, true)
		rescore[root.Op] = ms(end.Sub(start)) - applyMS[root.Op]
	}
	if pos != r.next {
		return fmt.Errorf("stream replay: %d points replayed, monitor saw %d", pos, r.next)
	}
	live := r.m.Stats()
	ws := eng.Stats()
	if live.Arrivals != ws.Arrivals || live.SurvivorLists != ws.SurvivorLists || live.KListRepairs != ws.Rescans {
		info.Check = fmt.Sprintf("window replay counters differ from live: arrivals %d/%d, survivor lists %d/%d, repairs %d/%d",
			live.Arrivals, ws.Arrivals, live.SurvivorLists, ws.SurvivorLists, live.KListRepairs, ws.Rescans)
	} else if msg, err := sameWindow(ctx, eng, r); err != nil {
		return err
	} else if msg != "" {
		info.Check = msg
	}
	m := rep.Metrics
	m["neighbors.window_apply_ms"] = metric{medianOf(applyMS), "ms"}
	m["neighbors.window_repair_fraction"] = metric{ws.RepairFraction(), "ratio"}
	m["stream.push_ms"] = metric{medianOf(push), "ms"}
	m["stream.rescore_flag_ms"] = metric{medianOf(rescore), "ms"}
	m["stream.dirty_rescore_fraction"] = metric{ratio(live.Rescored-st0.Rescored, live.Scored-st0.Scored), "ratio"}
	idleLayers(m)
	return nil
}
