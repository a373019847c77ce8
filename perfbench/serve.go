package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"anex/internal/client"
	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/metrics"
	"anex/internal/neighbors"
	"anex/internal/server"
	"anex/internal/subspace"
	"anex/internal/synth"
)

// serve_20d: anexd's handler on loopback HTTP in this process, driven by
// one internal/client caller in a closed loop. Set-up registers a
// 1000 × 20 planted-subspace tenant and sends the mix's cold requests; the
// timed phase is a fixed seeded sequence of warm explains plus writes
// (register a scratch payload under a second name, then forget it). The
// timed phase exercises codecs, transport, memo hits and search over
// memoised scores; neighbour tiers only move set-up.
const (
	serveN        = 1000
	serveDims     = 20
	serveTenant   = "tenant"
	serveScratch  = "scratch" // the name every write registers, then forgets
	serveBatch    = 10        // points per Beam request
	serveBatches  = 8         // distinct Beam batches
	serveRefOut   = 2         // RefOut points, warmed in set-up
	serveSequence = 512
	serveTail     = 95
	// serveReplayOps bounds how many traced ops are replayed against the
	// engine for server.engine_ms, codec_ms and dataset.register_ms.
	serveReplayOps = 400
)

// Request classes of the timed mix, in per-mille of the sequence.
var serveMix = []struct {
	class    string
	perMille int
}{
	{"beam_lof", 350},
	{"beam_abod", 350},
	{"refout", 200},
	{"write", 100},
}

type serveOp struct {
	class string
	req   server.ExplainRequest // unused for writes
}

// serveInputs are everything the workload sends, generated from the seed.
type serveInputs struct {
	csv, scratch []byte
	gt           *dataset.GroundTruth
	warm         []server.ExplainRequest // set-up's cold requests
	seq          []serveOp
}

func serveData(seed int64) (*serveInputs, error) {
	cfg := synth.SubspaceConfig{
		Name: "serve-20d", TotalDims: serveDims, SubspaceDims: []int{2, 2, 2, 2, 2},
		N: serveN, OutliersPerSubspace: 8, Seed: seed,
	}
	ds, gt, err := synth.GenerateSubspaceOutliers(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed + 7919
	scratch, _, err := synth.GenerateSubspaceOutliers(cfg)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{gt: gt}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, err
	}
	in.csv = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := scratch.WriteCSV(&buf); err != nil {
		return nil, err
	}
	in.scratch = buf.Bytes()

	// Batches walk a seeded permutation of the outliers, so together they
	// cover every one of them.
	rng := rand.New(rand.NewSource(seed))
	outliers := gt.PointsExplainedAt(2)
	perm := rng.Perm(len(outliers))
	batches := make([][]int, serveBatches)
	for b := range batches {
		for j := 0; j < serveBatch; j++ {
			batches[b] = append(batches[b], outliers[perm[(b*serveBatch+j)%len(perm)]])
		}
	}
	refPoints := make([]int, serveRefOut)
	for i := range refPoints {
		refPoints[i] = outliers[perm[i]]
	}
	beam := func(det string, pts []int) server.ExplainRequest {
		return server.ExplainRequest{Dataset: serveTenant, Points: pts, Algo: "beam", Detector: det}
	}
	refout := func(p int) server.ExplainRequest {
		return server.ExplainRequest{Dataset: serveTenant, Points: []int{p}, Algo: "refout", Detector: "lof"}
	}
	// Cold requests: every Beam batch under both detectors, RefOut on its
	// points, so the timed phase is warm throughout.
	for _, b := range batches {
		in.warm = append(in.warm, beam("lof", b), beam("abod", b))
	}
	for _, p := range refPoints {
		in.warm = append(in.warm, refout(p))
	}
	// Exact class shares, in a seeded order: every seed sends the same
	// amount of each kind of work.
	var classes []string
	for _, m := range serveMix {
		for i := 0; i < m.perMille*serveSequence/1000; i++ {
			classes = append(classes, m.class)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i, class := range classes {
		op := serveOp{class: class}
		switch class {
		case "beam_lof":
			op.req = beam("lof", batches[i%len(batches)])
		case "beam_abod":
			op.req = beam("abod", batches[i%len(batches)])
		case "refout":
			op.req = refout(refPoints[i%len(refPoints)])
		}
		in.seq = append(in.seq, op)
	}
	return in, nil
}

// serveRig is one engine behind a loopback HTTP listener.
type serveRig struct {
	engine *server.Engine
	srv    *server.Server
	http   *http.Server
	done   chan error
	url    string
	// planeAfterSetup is the plane's counters once the cold requests ran.
	planeAfterSetup map[string]int64
}

// startRig serves a fresh engine's handler (wrapped by wrap, if given) on
// 127.0.0.1.
func startRig(workers int, wrap func(http.Handler) http.Handler) (*serveRig, error) {
	engine := server.NewEngine(server.EngineConfig{Workers: workers})
	srv := server.New(engine, server.Config{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &serveRig{engine: engine, srv: srv, http: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { r.done <- r.http.Serve(ln) }()
	return r, nil
}

// stop shuts the listener down and waits for the serve loop to exit.
func (r *serveRig) stop() error {
	if r.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.http = nil
	return err
}

// benchClient is one closed-loop caller: its own connection pool, no
// retries (a refusal must count as a failure, not hide behind backoff).
type benchClient struct {
	c         *client.Client
	transport *http.Transport
	// op and span name the caller's current op and call span, for the
	// traced handler to parent its spans.
	op, span atomic.Int64
}

func newBenchClient(url string, trace bool) (*benchClient, error) {
	bc := &benchClient{transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	var rt http.RoundTripper = bc.transport
	if trace {
		rt = tagTransport{bc}
	}
	c, err := client.New(client.Config{BaseURL: url, HTTPClient: &http.Client{Transport: rt}, MaxAttempts: 1})
	if err != nil {
		return nil, err
	}
	bc.c = c
	return bc, nil
}

// tagTransport stamps each request with the caller's op and span ids.
type tagTransport struct{ bc *benchClient }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("X-Bench-Op", strconv.FormatInt(t.bc.op.Load(), 10))
	r.Header.Set("X-Bench-Span", strconv.FormatInt(t.bc.span.Load(), 10))
	return t.bc.transport.RoundTrip(r)
}

// traceHandler records a server.handler span around every request,
// parented to the calling client's span.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
			if op == 0 { // an untraced caller
				h.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
			id := tr.id()
			start := time.Now()
			h.ServeHTTP(w, r)
			tr.add(id, parent, op, "server.handler", start, time.Now(), false)
		})
	}
}

// serveSetup starts a rig, registers the tenant and sends the cold
// requests through one client.
func serveSetup(ctx context.Context, in *serveInputs, workers int, wrap func(http.Handler) http.Handler) (*serveRig, error) {
	rig, err := startRig(workers, wrap)
	if err != nil {
		return nil, err
	}
	bc, err := newBenchClient(rig.url, false)
	if err != nil {
		return nil, errors.Join(err, rig.stop())
	}
	defer bc.transport.CloseIdleConnections()
	if _, err := bc.c.Register(ctx, serveTenant, in.csv, true); err != nil {
		return nil, errors.Join(fmt.Errorf("register tenant: %w", err), rig.stop())
	}
	for _, req := range in.warm {
		if _, err := bc.c.ExplainRaw(ctx, req); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up %s/%s: %w", req.Algo, req.Detector, err), rig.stop())
		}
	}
	rig.planeAfterSetup = planeCounts(rig.engine.PlaneStats())
	return rig, nil
}

// serveResult is one op as the client saw it.
type serveResult struct {
	op   serveOp
	body []byte
	err  error
	opID int64
}

// servePhase drives the rig with one closed-loop client walking the fixed
// sequence from its start.
func servePhase(ctx context.Context, rig *serveRig, in *serveInputs, d time.Duration, tr *tracer) (loopResult, []serveResult, error) {
	bc, err := newBenchClient(rig.url, tr != nil)
	if err != nil {
		return loopResult{}, nil, err
	}
	defer bc.transport.CloseIdleConnections()
	var results []serveResult
	lr := closedLoop(d, len(in.seq), func(i int) ([]float64, bool) {
		op := in.seq[i%len(in.seq)]
		rootID := tr.id()
		res := serveResult{op: op, opID: rootID}
		call := func(name string, f func() error) error {
			id := tr.id()
			bc.op.Store(rootID)
			bc.span.Store(id)
			start := time.Now()
			err := f()
			tr.add(id, rootID, rootID, name, start, time.Now(), false)
			return err
		}
		start := time.Now()
		if op.class == "write" {
			res.err = call("client.register", func() error {
				_, err := bc.c.Register(ctx, serveScratch, in.scratch, true)
				return err
			})
			if res.err == nil {
				res.err = call("client.forget", func() error {
					fr, err := bc.c.Forget(ctx, serveScratch)
					if err == nil && !fr.Forgotten {
						err = fmt.Errorf("forget %s: not registered", serveScratch)
					}
					return err
				})
			}
		} else {
			res.err = call("client.explain", func() error {
				var err error
				res.body, err = bc.c.ExplainRaw(ctx, op.req)
				return err
			})
		}
		end := time.Now()
		tr.add(rootID, 0, rootID, "op", start, end, false)
		results = append(results, res)
		if res.err != nil {
			return []float64{math.Inf(1)}, true
		}
		return []float64{ms(end.Sub(start))}, false
	})
	return lr, results, nil
}

func reqKey(req server.ExplainRequest) string {
	b, _ := json.Marshal(req) // plain struct: cannot fail
	return string(b)
}

// serveAnswers asks engine for every distinct request of the mix (the
// warm-up list covers them all), in the list's order.
func serveAnswers(ctx context.Context, engine *server.Engine, in *serveInputs) (map[string]*server.ExplainResponse, error) {
	out := map[string]*server.ExplainResponse{}
	for _, req := range in.warm {
		resp, err := engine.Explain(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("reference explain: %w", err)
		}
		out[reqKey(req)] = resp
	}
	return out, nil
}

// serveCheck verifies every response: 2xx, byte-identical across repeats
// of one request, and equal to the reference answers (Engine.Explain on an
// engine that ran set-up only and never saw the timed traffic).
func serveCheck(want map[string]*server.ExplainResponse, results []serveResult) string {
	first := map[string][]byte{}
	for _, r := range results {
		if r.err != nil {
			return fmt.Sprintf("%s request failed: %v", r.op.class, r.err)
		}
		if r.op.class == "write" {
			continue
		}
		k := reqKey(r.op.req)
		if f, ok := first[k]; ok {
			if !bytes.Equal(f, r.body) {
				return "repeated request answered differently: " + k
			}
			continue
		}
		first[k] = r.body
		var got server.ExplainResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return "undecodable response: " + err.Error()
		}
		if w, ok := want[k]; !ok || !reflect.DeepEqual(*w, got) {
			return "response differs from Engine.Explain: " + k
		}
	}
	return "ok"
}

// serveQuality scores the reference answers against the planted ground
// truth: the paper's MAP and Mean Recall over every (algorithm, detector,
// point) the mix explains.
func serveQuality(want map[string]*server.ExplainResponse, in *serveInputs) (mapMean, recallMean float64) {
	seen := map[string]bool{}
	var evals []metrics.PointResult
	for _, req := range in.warm {
		resp := want[reqKey(req)]
		for _, pe := range resp.Points {
			pk := fmt.Sprintf("%s/%s/%d", req.Algo, req.Detector, pe.Point)
			if seen[pk] {
				continue
			}
			seen[pk] = true
			var returned []subspace.Subspace
			for _, s := range pe.Subspaces {
				returned = append(returned, subspace.New(s.Features...))
			}
			evals = append(evals, metrics.EvaluatePoint(pe.Point, returned, in.gt.RelevantAt(pe.Point, resp.Dim)))
		}
	}
	return metrics.MAP(evals), metrics.MeanRecall(evals)
}

func runServe(ctx context.Context, cfg runConfig) (*report, *runInfo, error) {
	in, err := serveData(cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if cfg.Trace {
		tr = newTracer()
		wrap = traceHandler(tr)
	}
	// The first rig answers every distinct request once, for the check,
	// and is shut down; each later rig is shut down when the next rep
	// replaces it, and the last serves the timed phase.
	var rig *serveRig
	defer func() {
		if rig != nil {
			_ = rig.stop() // idempotent; errors were reported where it mattered
		}
	}()
	var want map[string]*server.ExplainResponse
	var discardErr error
	rig, setupS, err := timeSetup(func() (*serveRig, error) {
		return serveSetup(ctx, in, cfg.Workers, wrap)
	}, func(prev *serveRig) {
		if want == nil {
			var err error
			want, err = serveAnswers(ctx, prev.engine, in)
			discardErr = errors.Join(discardErr, err)
		}
		discardErr = errors.Join(discardErr, prev.stop())
	})
	if err == nil {
		err = discardErr
	}
	if err == nil && want == nil {
		want, err = serveAnswers(ctx, rig.engine, in) // a single rep
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}

	rep := &report{Metrics: map[string]metric{}}
	info := &runInfo{TailPercentile: serveTail, Counts: rig.planeAfterSetup}
	phase := time.Duration(cfg.Seconds * float64(time.Second))
	var lr loopResult
	var results []serveResult
	if !cfg.Trace {
		lr, results, err = servePhase(ctx, rig, in, phase, nil)
		if err != nil {
			return nil, nil, err
		}
		rep.Metrics = endToEnd(lr, serveTail)
		rep.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		untraced, plain, err := servePhase(ctx, rig, in, phase/2, nil)
		if err != nil {
			return nil, nil, err
		}
		before := rig.srv.Stats()
		lr, results, err = servePhase(ctx, rig, in, phase/2, tr)
		if err != nil {
			return nil, nil, err
		}
		rep.Metrics["trace.overhead"] = metric{traceOverhead(untraced, lr), "ratio"}
		if err := serveLayers(ctx, rig, in, results, tr, before, rep.Metrics); err != nil {
			return nil, nil, err
		}
		lr = mergeLoops(untraced, lr)
		results = append(results, plain...)
	}
	rep.Attempted, rep.Failed = lr.Ops, lr.Failed
	info.LatencySamples = len(lr.Samples)

	verdict := serveCheck(want, results)
	if cfg.Trace && verdict == "ok" {
		verdict = serveReplayCheck(ctx, in, cfg.Workers, rig, rep.Metrics)
	}
	info.Check = verdict
	rep.Correct = verdict == "ok"
	if !cfg.Trace {
		mapMean, recallMean := serveQuality(want, in)
		rep.Metrics["map_mean"] = metric{mapMean, "ratio"}
		rep.Metrics["recall_mean"] = metric{recallMean, "ratio"}
	} else {
		idleLayers(rep.Metrics)
		if err := tr.write(fmt.Sprintf("serve_20d-seed%d", cfg.Seed)); err != nil {
			return nil, nil, err
		}
	}
	return rep, info, nil
}

// serveLayers derives the timed phase's per-layer metrics: handler,
// client-transport and codec time from the spans, engine and registration
// time by replaying each traced op's request directly against the engine.
func serveLayers(ctx context.Context, rig *serveRig, in *serveInputs, results []serveResult, tr *tracer, before server.StatsResponse, m map[string]metric) error {
	after := rig.srv.Stats()
	m["detector.memo_hit_ratio"] = metric{ratio(after.ScoreMemo.Hits-before.ScoreMemo.Hits, after.ScoreMemo.Calls-before.ScoreMemo.Calls), "ratio"}
	m["server.rejected"] = metric{float64(after.Admission.Rejected429 - before.Admission.Rejected429), "count"}
	m["neighbors.plane_hit_ratio"] = metric{ratio(after.Plane.Hits-before.Plane.Hits, after.Plane.Queries-before.Plane.Queries), "ratio"}

	var engineMS, codecMS, registerMS []float64
	spans := tr.snapshot()
	handler := sumByName(spans, "server.handler")
	calls := map[int64]float64{}
	for _, name := range []string{"client.explain", "client.register", "client.forget"} {
		for op, v := range sumByName(spans, name) {
			calls[op] += v
		}
	}
	transport := map[int64]float64{}
	for op, c := range calls {
		transport[op] = c - handler[op]
	}
	explainHandler := map[int64]float64{}
	h := rig.srv.Handler()
	replayed := 0
	for _, r := range results {
		if r.err != nil || replayed == serveReplayOps {
			continue
		}
		replayed++
		start := time.Now()
		if r.op.class == "write" {
			pending, err := rig.engine.PrepareRegister("replay-scratch", in.scratch, true)
			if err != nil {
				return fmt.Errorf("replay register: %w", err)
			}
			pending.Commit()
			end := time.Now()
			rig.engine.Forget("replay-scratch")
			tr.add(tr.id(), 0, r.opID, "dataset.register", start, end, true)
			registerMS = append(registerMS, ms(end.Sub(start)))
			continue
		}
		// An untimed call first warms the caches the request touches;
		// the handler is then replayed right after the engine, so
		// handler − engine compares timings taken under the same
		// conditions.
		for i := 0; i < 2; i++ {
			start = time.Now()
			if _, err := rig.engine.Explain(ctx, r.op.req); err != nil {
				return fmt.Errorf("replay explain: %w", err)
			}
		}
		e := ms(time.Since(start))
		tr.add(tr.id(), 0, r.opID, "server.engine", start, time.Now(), true)
		body, err := json.Marshal(r.op.req)
		if err != nil {
			return fmt.Errorf("replay request: %w", err)
		}
		w := httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body)))
		hd := ms(time.Since(start))
		if w.Code != http.StatusOK {
			return fmt.Errorf("replay handler: status %d", w.Code)
		}
		engineMS = append(engineMS, e)
		codecMS = append(codecMS, hd-e)
		explainHandler[r.opID] = handler[r.opID]
	}
	m["server.handler_ms"] = metric{medianOf(explainHandler), "ms"}
	m["server.engine_ms"] = metric{median(engineMS), "ms"}
	m["server.codec_ms"] = metric{median(codecMS), "ms"}
	m["client.transport_ms"] = metric{medianOf(transport), "ms"}
	m["dataset.register_ms"] = metric{median(registerMS), "ms"}
	return nil
}

// serveReplayCheck re-runs set-up's cold requests through the server's own
// factories with recorders beneath fresh memos, replays the recorded views
// on a fresh plane to time each neighbour tier, and checks the replay
// moved the same plane counters as the live engine's set-up. It returns
// "ok" or the mismatch, and adds the set-up tier metrics to m.
func serveReplayCheck(ctx context.Context, in *serveInputs, workers int, rig *serveRig, m map[string]metric) string {
	ds, err := dataset.ReadCSV(serveTenant, bytes.NewReader(in.csv), true)
	if err != nil {
		return "replay: " + err.Error()
	}
	log := newViewLog(nil)
	memos := map[string]core.Detector{}
	plane := neighbors.NewPlane(0)
	for _, req := range in.warm {
		memo, ok := memos[req.Detector]
		if !ok {
			det, err := server.NewDetectorByName(req.Detector, 1, workers)
			if err != nil {
				return "replay: " + err.Error()
			}
			k := detector.DefaultLOFK
			if req.Detector == "abod" {
				k = detector.DefaultABODK
			}
			rec := newRecorder(det, k, log)
			rec.SetNeighbors(plane)
			memo = detector.NewCachedBudget(rec, 0)
			memos[req.Detector] = memo
		}
		ex, err := server.NewPointExplainerByName(req.Algo, memo, 1)
		if err != nil {
			return "replay: " + err.Error()
		}
		for _, p := range req.Points {
			if _, err := ex.ExplainPoint(ctx, ds, p, 2); err != nil {
				return "replay: " + err.Error()
			}
		}
	}
	led, err := replayViews(ctx, log.take(0), []int{detector.DefaultLOFK, detector.DefaultABODK})
	if err != nil {
		return "replay: " + err.Error()
	}
	if msg := diffCounts(rig.planeAfterSetup, planeCounts(led.Stats)); msg != "" {
		return "set-up replay counters differ from live: " + msg
	}
	tierMetrics([]tierLedger{led}, m)
	m["neighbors.plane_computations"] = metric{float64(led.Stats.Computations), "count"}
	return "ok"
}
