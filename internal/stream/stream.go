// Package stream extends the testbed toward the paper's future-work
// direction (Section 6): outlier explanation over data in motion. A
// Monitor consumes points one at a time, maintains a sliding window,
// periodically re-runs an unsupervised detector over the window, and —
// because subspace explanations are descriptive and must be recomputed for
// every new bunch of data — re-explains each newly flagged point with a
// point-explanation algorithm before emitting it as an alert.
//
// Monitors are built for unbounded streams: per-evaluation state (the
// flagged-sequence dedup set, the window datasets' entries in the
// detector's neighbourhood plane and in a memoising detector's score
// cache) is released as soon as it can no longer influence an alert, so a
// monitor's memory footprint is a function of the window size, not of
// stream length.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/stats"
)

// ErrClosed is returned by Push and Flush after Close: a closed monitor
// has released its cache entries and must not silently re-create them.
var ErrClosed = errors.New("stream: monitor closed")

// MinWindowSize is the smallest window a Monitor evaluates: below it the
// Z-score standardisation of the window's detector scores is too noisy to
// threshold. Both NewMonitor's validation and Flush's partial-window gate
// share this one constant.
const MinWindowSize = 8

// DefaultZThreshold is the flagging threshold applied when Config.ZThreshold
// is nil. Detector score distributions are typically right-skewed, so
// thresholds well above 3 are common for LOF.
const DefaultZThreshold = 3

// DefaultTargetDim is the explanation dimensionality applied when
// Config.TargetDim is zero.
const DefaultTargetDim = 2

// Threshold returns a pointer to z, for Config.ZThreshold. The pointer
// distinguishes "unset, use DefaultZThreshold" (nil) from a deliberate
// zero threshold (flag every point scoring above the window mean).
func Threshold(z float64) *float64 { return &z }

// Alert reports one flagged point together with its subspace explanation.
type Alert struct {
	// Sequence is the 0-based position of the point in the input stream.
	Sequence int
	// Point is a copy of the flagged point.
	Point []float64
	// Score is the detector's outlyingness score within the window, and
	// ZScore its standardised form.
	Score, ZScore float64
	// Explanation ranks the subspaces explaining the point within the
	// window (best first). Nil when the monitor's explainer is nil.
	Explanation []core.ScoredSubspace
}

// Config parameterises a Monitor. The zero value of every optional knob
// means "use the documented default"; knobs whose zero value is also a
// legitimate setting (ZThreshold) are pointers so that unset and zero stay
// distinguishable. SetDefaults resolves the sentinels in place.
type Config struct {
	// WindowSize is the number of most recent points evaluated together;
	// it must be at least MinWindowSize.
	WindowSize int
	// Stride is how many new points arrive between evaluations; zero
	// means WindowSize/4 (so consecutive windows overlap by 75 %). Zero is
	// a pure "unset" sentinel: a stride below 1 point is meaningless.
	Stride int
	// ZThreshold flags points whose standardised window score exceeds it;
	// nil means DefaultZThreshold. Use Threshold(0) for a genuine zero
	// threshold (flag everything above the window mean).
	ZThreshold *float64
	// MaxFlagsPerWindow caps how many points one evaluation may flag
	// (the highest-scored ones win); zero means no cap. It bounds the
	// false-alert rate the way a contamination assumption does.
	MaxFlagsPerWindow int
	// TargetDim is the explanation dimensionality; zero means
	// DefaultTargetDim (a zero-dimensional explanation is meaningless, so
	// zero is a pure "unset" sentinel).
	TargetDim int
	// Detector scores the window (required).
	Detector core.Detector
	// Explainer explains flagged points within the window. Nil disables
	// explanations (alerts carry scores only).
	Explainer core.PointExplainer
	// FeatureNames, when set, names the stream's features in the window
	// datasets handed to the explainer.
	FeatureNames []string
	// Plane must be nil or the plane of the monitor's kNN detector (reached
	// through a detector.Cached wrapper); NewMonitor rejects any other
	// plane, since nothing would ever read it. The monitor works on the
	// detector's plane: the incremental engine publishes each window's
	// neighbourhood there, so every window's kNN phase is a plane hit
	// costing no computation (TestMonitorIncrementalSoak pins that), and
	// each expired window is forgotten from it. A detector without a plane
	// (a zero-value LOF, iForest) is scored cold every evaluation. The
	// field stays only because the benchmark harness sets it.
	Plane *neighbors.Plane
	// Tombstones, when set, receives a forget record for every expired
	// window dataset — the hook that lets a durable deployment log the
	// death of ephemeral stream windows the same way it logs dataset
	// forgets (*durable.Store satisfies it). Append failures surface from
	// the Push/Flush that triggered the expiry; Close ignores them (the
	// store is typically already shut down at that point).
	Tombstones Tombstones
	// NoIncremental disables the incremental neighbourhood engine: every
	// evaluation's detector computes the window's kNN structure cold, the
	// pre-engine behaviour. Alerts are bit-identical either way (the
	// engine's contract); the knob exists for A/B benchmarking and as an
	// escape hatch.
	NoIncremental bool
	// Workers bounds the goroutines of the engine's scan and repair
	// phases; values ≤ 1 (including zero) stay serial. Results are
	// identical at any worker count.
	Workers int
}

// Tombstones records that a named dataset is dead and must not be
// resurrected. *durable.Store implements it.
type Tombstones interface {
	AppendForget(name string) error
}

// SetDefaults resolves every unset knob to its documented default in
// place: Stride 0 → WindowSize/4 (at least 1), ZThreshold nil →
// DefaultZThreshold, TargetDim 0 → DefaultTargetDim, Plane nil → the
// detector's plane. NewMonitor applies it to its private copy of the
// configuration; callers only need it to inspect resolved values.
func (c *Config) SetDefaults() {
	if c.Stride == 0 {
		c.Stride = c.WindowSize / 4
		if c.Stride < 1 {
			c.Stride = 1
		}
	}
	if c.ZThreshold == nil {
		c.ZThreshold = Threshold(DefaultZThreshold)
	}
	if c.TargetDim == 0 {
		c.TargetDim = DefaultTargetDim
	}
	if c.Plane == nil {
		_, c.Plane = windowScorerOf(c.Detector)
	}
}

func (c *Config) validate() error {
	if c.WindowSize < MinWindowSize {
		return fmt.Errorf("stream: window size %d too small (need ≥ %d)", c.WindowSize, MinWindowSize)
	}
	if c.Detector == nil {
		return fmt.Errorf("stream: nil detector")
	}
	if c.Stride < 0 {
		return fmt.Errorf("stream: negative stride")
	}
	if _, p := windowScorerOf(c.Detector); c.Plane != p {
		return fmt.Errorf("stream: Plane is not the detector's neighbourhood plane")
	}
	return nil
}

// cacheForgetter is the optional release hook of score-memoising detectors
// (detector.Cached): dropping every memo entry of one dataset, by source
// key.
type cacheForgetter interface {
	Forget(sourceKey string)
}

// Monitor is a sliding-window outlier detection + explanation pipeline.
// It is not safe for concurrent use.
type Monitor struct {
	cfg       Config
	stride    int
	threshold float64
	targetDim int

	window    [][]float64 // ring buffer of copies
	seq       []int       // stream sequence number per window slot
	next      int         // ring position of the next write
	filled    bool
	sinceEval int
	total     int
	dim       int // fixed by the first pushed point (or FeatureNames)

	flagged map[int]bool     // live sequence numbers already alerted
	prev    *dataset.Dataset // previous evaluation's window, released next eval
	evals   int
	closed  bool

	// Incremental engine state. ws is the kNN detector the engine serves
	// (nil when there is none, it has no plane, or Config.NoIncremental is
	// set); pending accumulates the arrivals since the last engine
	// application, deduplicated by slot so a stride that laps the window
	// delivers only each slot's final occupant.
	ws      windowDetector
	eng     *neighbors.WindowEngine
	winK    int // depth the live engine maintains
	pending []neighbors.WindowArrival

	// Fast-Flush memo: the previous successful evaluation's scores (a
	// private copy) and the stream position they were computed at. A Flush
	// that arrives with no new points re-serves these instead of rebuilding
	// an identical window.
	lastScores []float64
	lastTotal  int

	stats StreamStats
}

// NewMonitor builds a Monitor from the configuration (defaults applied to a
// private copy; the caller's Config is not mutated).
func NewMonitor(cfg Config) (*Monitor, error) {
	cfg.SetDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Monitor{
		cfg:       cfg,
		stride:    cfg.Stride,
		threshold: *cfg.ZThreshold,
		targetDim: cfg.TargetDim,
		window:    make([][]float64, 0, cfg.WindowSize),
		seq:       make([]int, 0, cfg.WindowSize),
		flagged:   make(map[int]bool),
		lastTotal: -1,
	}
	if !cfg.NoIncremental && cfg.Plane != nil {
		m.ws, _ = windowScorerOf(cfg.Detector)
	}
	return m, nil
}

// windowDetector is a kNN detector whose window neighbourhood the engine
// maintains.
type windowDetector interface {
	core.Detector
	detector.WindowScorer
}

// windowScorerOf resolves the kNN detector the engine serves, reaching
// through a detector.Cached wrapper, and the plane it reads; both are nil
// for a detector that is not one. With the engine live the monitor scores
// the inner detector directly: a window's scores are never asked for
// twice, so memoising them would only hold memory until release.
func windowScorerOf(d core.Detector) (windowDetector, *neighbors.Plane) {
	if c, ok := d.(*detector.Cached); ok {
		d = c.Inner()
	}
	ws, ok := d.(windowDetector)
	if !ok {
		return nil, nil
	}
	_, plane := ws.WindowK()
	return ws, plane
}

// Evaluations returns how many window evaluations have run.
func (m *Monitor) Evaluations() int { return m.evals }

// Seen returns how many points have been pushed.
func (m *Monitor) Seen() int { return m.total }

// FlaggedLive returns how many already-alerted sequence numbers the monitor
// still tracks. Pruning keeps it bounded by the window size regardless of
// stream length — the observability hook of the soak test.
func (m *Monitor) FlaggedLive() int { return len(m.flagged) }

// Push consumes one point and returns any alerts raised by the evaluation
// it may trigger. The point is copied; the caller may reuse the slice.
// Cancelling ctx aborts a triggered evaluation with ctx's error; the pushed
// point is retained either way.
//
// The first pushed point (or a configured FeatureNames) fixes the stream's
// dimensionality; a later point of a different width is rejected here — by
// an error naming its stream sequence, before the point is retained —
// instead of failing deep inside the next evaluation's dataset build.
func (m *Monitor) Push(ctx context.Context, point []float64) ([]Alert, error) {
	if m.closed {
		return nil, ErrClosed
	}
	if err := m.checkDim(point); err != nil {
		return nil, err
	}
	cp := make([]float64, len(point))
	copy(cp, point)
	slot := len(m.window)
	if slot < m.cfg.WindowSize {
		m.window = append(m.window, cp)
		m.seq = append(m.seq, m.total)
	} else {
		m.filled = true
		slot = m.next
		m.window[m.next] = cp
		m.seq[m.next] = m.total
		m.next = (m.next + 1) % m.cfg.WindowSize
	}
	m.recordArrival(slot, cp)
	m.total++
	m.sinceEval++

	windowFull := m.filled || len(m.window) == m.cfg.WindowSize
	if !windowFull || m.sinceEval < m.stride {
		return nil, nil
	}
	m.sinceEval = 0
	return m.evaluate(ctx)
}

// checkDim validates one incoming point's width against the stream's fixed
// dimensionality, establishing it from the first point (cross-checked
// against FeatureNames when configured).
func (m *Monitor) checkDim(point []float64) error {
	if m.dim == 0 {
		if len(point) == 0 {
			return fmt.Errorf("stream: point at sequence %d has no features", m.total)
		}
		if n := len(m.cfg.FeatureNames); n > 0 && n != len(point) {
			return fmt.Errorf("stream: point at sequence %d has %d features, want %d (FeatureNames)", m.total, len(point), n)
		}
		m.dim = len(point)
		return nil
	}
	if len(point) != m.dim {
		return fmt.Errorf("stream: point at sequence %d has %d features, want %d", m.total, len(point), m.dim)
	}
	return nil
}

// recordArrival remembers the slot's newest occupant for the incremental
// engine, keeping only the final occupant when one stride laps the slot
// twice. A no-op when no engine will consume it.
func (m *Monitor) recordArrival(slot int, p []float64) {
	if m.ws == nil {
		return
	}
	for i := range m.pending {
		if m.pending[i].Slot == slot {
			m.pending[i].Point = p
			return
		}
	}
	m.pending = append(m.pending, neighbors.WindowArrival{Slot: slot, Point: p})
}

// Flush forces an evaluation of the current window if it holds at least
// MinWindowSize points, regardless of stride position. A Flush with no new
// points since the last evaluation does not rebuild the (identical) window:
// it re-serves the previous evaluation's scores and re-runs only the
// flagging stage — exactly what a full re-evaluation of the same rows would
// compute, without a fresh dataset identity, plane entry, or score pass.
func (m *Monitor) Flush(ctx context.Context) ([]Alert, error) {
	if m.closed {
		return nil, ErrClosed
	}
	if len(m.window) < MinWindowSize {
		return nil, nil
	}
	m.sinceEval = 0
	if m.prev != nil && m.lastScores != nil && m.total == m.lastTotal {
		m.evals++
		m.stats.Evaluations++
		m.stats.FastFlushes++
		m.pruneFlagged()
		return m.flag(ctx, m.prev, m.lastScores)
	}
	return m.evaluate(ctx)
}

// Close releases the cache entries of the monitor's current and previous
// window datasets and marks the monitor closed: further Push/Flush calls
// return ErrClosed, and repeated Close calls are no-ops. Optional: a
// monitor abandoned without Close leaks at most those two windows' cache
// entries until LRU pressure reclaims them. Tombstone-append failures are
// ignored here — at Close time the durable store is often already gone.
func (m *Monitor) Close() {
	if m.closed {
		return
	}
	m.closed = true
	_ = m.release(m.prev)
	m.prev = nil
	m.dropEngine()
	m.lastScores = nil
	m.pending = nil
}

// release forgets one dead window dataset from the detector's plane and
// from the detector's score memo (when the detector keeps one), then logs
// the death to the configured tombstone sink. Cache release runs even when
// the tombstone append fails — a failed log must not pin memory.
func (m *Monitor) release(ds *dataset.Dataset) error {
	if ds == nil {
		return nil
	}
	m.cfg.Plane.Forget(ds.SourceKey())
	if f, ok := m.cfg.Detector.(cacheForgetter); ok {
		f.Forget(ds.SourceKey())
	}
	if m.cfg.Tombstones != nil {
		if err := m.cfg.Tombstones.AppendForget(ds.Name()); err != nil {
			return fmt.Errorf("stream: tombstone window %q: %w", ds.Name(), err)
		}
	}
	return nil
}

// pruneFlagged drops alerted sequence numbers older than the oldest live
// window slot. Without pruning the dedup set grows one entry per alert for
// the lifetime of the stream; with it the set is bounded by the window
// size, and dedup semantics are unchanged — an expired sequence can never
// reappear in a window, so its entry can no longer suppress anything.
func (m *Monitor) pruneFlagged() {
	if len(m.flagged) == 0 || len(m.seq) == 0 {
		return
	}
	oldest := m.seq[0]
	for _, s := range m.seq[1:] {
		if s < oldest {
			oldest = s
		}
	}
	for s := range m.flagged {
		if s < oldest {
			delete(m.flagged, s)
		}
	}
}

func (m *Monitor) evaluate(ctx context.Context) ([]Alert, error) {
	m.evals++
	m.stats.Evaluations++
	m.pruneFlagged()
	ds, err := dataset.FromRows(fmt.Sprintf("window-%d", m.evals), m.window, m.featureNames())
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	// The previous evaluation's window dataset can no longer influence any
	// alert: release its plane and score-memo entries before the new
	// window's are computed, so a long stream holds a bounded footprint of
	// at most two windows (current + the one released here next round).
	releaseErr := m.release(m.prev)
	m.prev = ds
	if releaseErr != nil {
		return nil, releaseErr
	}
	scores, err := m.score(ctx, ds)
	if err != nil {
		return nil, fmt.Errorf("stream: score window %d: %w", m.evals, err)
	}
	m.lastScores = append(m.lastScores[:0], scores...)
	m.lastTotal = m.total
	return m.flag(ctx, ds, scores)
}

// score produces the window's detector scores with one Scores call over
// the full window. With the engine live the window's neighbourhood is
// published first, so that call's kNN phase is a plane hit; otherwise the
// detector computes it cold. The scores are identical either way.
func (m *Monitor) score(ctx context.Context, ds *dataset.Dataset) ([]float64, error) {
	det := m.cfg.Detector
	if m.ws != nil {
		if err := m.publish(ctx, ds); err != nil {
			return nil, err
		}
		det = m.ws
	}
	scores, err := det.Scores(ctx, ds.FullView())
	if err == nil {
		m.stats.Scored += len(scores)
		m.stats.Rescored += len(scores)
	}
	return scores, err
}

// publish advances the window engine by the pending arrivals and installs
// the maintained neighbourhood into the plane under the fresh window
// dataset's key, where the detector, the explainers and any co-resident
// consumer find it instead of recomputing.
func (m *Monitor) publish(ctx context.Context, ds *dataset.Dataset) error {
	if err := m.ensureEngine(ctx); err != nil {
		return err
	}
	if len(m.pending) > 0 {
		if err := m.eng.Apply(ctx, m.pending); err != nil {
			// The engine is undefined after a failed Apply; discard it so
			// the next evaluation rebuilds cold.
			m.dropEngine()
			return err
		}
		m.pending = m.pending[:0]
	}
	idx, dist, mk, _ := m.eng.Neighborhood()
	m.cfg.Plane.Publish(ds.FullView(), m.eng.K(), mk, idx, dist)
	m.stats.Publishes++
	return nil
}

// ensureEngine makes the window engine live at the right depth, seeding it
// from the full current window (one cold build) on first use or when the
// required depth grew — the plane's kmax can rise as consumers register.
func (m *Monitor) ensureEngine(ctx context.Context) error {
	winK, _ := m.ws.WindowK()
	if pk := m.cfg.Plane.KMax(); pk > winK {
		// Maintain at the plane's depth so the published entry satisfies
		// every co-resident consumer without an upgrade recompute.
		winK = pk
	}
	if m.eng != nil && m.winK == winK {
		return nil
	}
	m.dropEngine()
	eng := neighbors.NewWindowEngine(winK, neighbors.DefaultWindowSlack, m.cfg.Workers)
	seed := make([]neighbors.WindowArrival, len(m.window))
	for i, p := range m.window {
		seed[i] = neighbors.WindowArrival{Slot: i, Point: p}
	}
	if err := eng.Apply(ctx, seed); err != nil {
		return err
	}
	m.eng = eng
	m.winK = winK
	m.pending = m.pending[:0]
	m.stats.EngineRebuilds++
	return nil
}

// dropEngine discards the live engine, folding its counters into the
// monitor's running stats.
func (m *Monitor) dropEngine() {
	if m.eng != nil {
		m.foldEngineStats(m.eng.Stats())
		m.eng = nil
	}
	m.winK = 0
}

func (m *Monitor) foldEngineStats(ws neighbors.WindowStats) {
	m.stats.Arrivals += ws.Arrivals
	m.stats.SurvivorLists += ws.SurvivorLists
	m.stats.KListRepairs += ws.Rescans
}

// flag is the evaluation's decision stage: Z-standardise the window scores,
// flag the not-yet-alerted points above threshold (highest first, capped by
// MaxFlagsPerWindow), and explain each flagged point within ds.
func (m *Monitor) flag(ctx context.Context, ds *dataset.Dataset, scores []float64) ([]Alert, error) {
	z := stats.ZScores(scores)
	candidates := make([]int, 0, 4)
	for i, zi := range z {
		if zi >= m.threshold && !m.flagged[m.seq[i]] {
			candidates = append(candidates, i)
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return z[candidates[a]] > z[candidates[b]] })
	if limit := m.cfg.MaxFlagsPerWindow; limit > 0 && len(candidates) > limit {
		candidates = candidates[:limit]
	}
	var alerts []Alert
	for _, i := range candidates {
		m.flagged[m.seq[i]] = true
		alert := Alert{
			Sequence: m.seq[i],
			Point:    append([]float64(nil), m.window[i]...),
			Score:    scores[i],
			ZScore:   z[i],
		}
		if m.cfg.Explainer != nil {
			expl, err := m.cfg.Explainer.ExplainPoint(ctx, ds, i, m.targetDim)
			if err != nil {
				return alerts, fmt.Errorf("stream: explain sequence %d: %w", m.seq[i], err)
			}
			alert.Explanation = expl
		}
		alerts = append(alerts, alert)
	}
	return alerts, nil
}

func (m *Monitor) featureNames() []string {
	if m.cfg.FeatureNames == nil {
		return nil
	}
	names := make([]string, len(m.cfg.FeatureNames))
	copy(names, m.cfg.FeatureNames)
	return names
}

// StreamStats is a point-in-time snapshot of a Monitor's activity: how much
// of the incremental machinery engaged, and how often its reservoirs needed
// a rescan. anexbench -stats prints it after the stream benchmark arm.
type StreamStats struct {
	// Evaluations counts window evaluations (fast Flush re-serves
	// included); FastFlushes of those re-served the previous evaluation's
	// scores without rebuilding the window.
	Evaluations, FastFlushes int
	// Incremental reports whether the incremental engine is live.
	Incremental bool
	// EngineRebuilds counts cold engine builds (first use, or a depth
	// change when a deeper consumer registered with the plane).
	EngineRebuilds int
	// Arrivals counts points delivered to the engine (each one fresh
	// scan); SurvivorLists reservoirs examined for repair; KListRepairs of
	// those needed a full rescan — the expensive event the reservoir slack
	// exists to avoid.
	Arrivals, SurvivorLists, KListRepairs int
	// Scored counts points scored across all evaluations (fast Flushes
	// excluded). Rescored always equals Scored — every evaluation scores
	// each point afresh — and stays only because perfbench still reads
	// it; it goes with the next change to the benchmark.
	Scored, Rescored int
	// Publishes counts maintained neighbourhoods installed into the plane
	// for explainer/consumer reuse.
	Publishes int
}

// RepairFraction reports the fraction of survivor k-lists that needed a
// full rescan per stride: KListRepairs ÷ SurvivorLists, 0 when nothing was
// examined. The deterministic ceiling gate pins it on the reference
// workload.
func (s StreamStats) RepairFraction() float64 {
	if s.SurvivorLists == 0 {
		return 0
	}
	return float64(s.KListRepairs) / float64(s.SurvivorLists)
}

func (s StreamStats) String() string {
	return fmt.Sprintf(
		"evaluations %d (fast flushes %d), incremental %v (rebuilds %d), arrivals %d, survivor lists %d, k-list repairs %d (repair fraction %.3f), scored %d, publishes %d",
		s.Evaluations, s.FastFlushes, s.Incremental, s.EngineRebuilds,
		s.Arrivals, s.SurvivorLists, s.KListRepairs, s.RepairFraction(),
		s.Scored, s.Publishes)
}

// Stats returns the monitor's activity counters, including the live
// engine's.
func (m *Monitor) Stats() StreamStats {
	st := m.stats
	if m.eng != nil {
		ws := m.eng.Stats()
		st.Arrivals += ws.Arrivals
		st.SurvivorLists += ws.SurvivorLists
		st.KListRepairs += ws.Rescans
		st.Incremental = true
	}
	return st
}
