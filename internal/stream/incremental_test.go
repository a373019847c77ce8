package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/neighbors"
)

// parityArm builds one monitor over a private plane so the two arms of a
// parity run share nothing (the engine publishes into its own plane; the
// cold arm computes into its own).
type parityArm struct {
	name string
	mk   func(noInc bool) (*Monitor, *neighbors.Plane)
}

func lofArm(k, workers, stride int) parityArm {
	return parityArm{
		name: fmt.Sprintf("LOF-k%d-w%d-s%d", k, workers, stride),
		mk: func(noInc bool) (*Monitor, *neighbors.Plane) {
			plane := neighbors.NewPlane(0)
			det := &detector.LOF{K: k, Workers: workers}
			det.SetNeighbors(plane)
			return mustMonitor(Config{
				WindowSize:    48,
				Stride:        stride,
				ZThreshold:    Threshold(2.5),
				Detector:      det,
				Plane:         plane,
				NoIncremental: noInc,
				Workers:       workers,
			}), plane
		},
	}
}

// planeDetector is a kNN detector that reads a neighbourhood plane.
type planeDetector interface {
	core.Detector
	SetNeighbors(*neighbors.Plane)
}

// oneHopArm drives a plane-reading detector other than LOF (FastABOD,
// kNN-dist) at flagging threshold z; newDet must return a fresh detector
// per monitor.
func oneHopArm(name string, workers, stride int, z float64, newDet func() planeDetector) parityArm {
	return parityArm{
		name: name,
		mk: func(noInc bool) (*Monitor, *neighbors.Plane) {
			plane := neighbors.NewPlane(0)
			det := newDet()
			det.SetNeighbors(plane)
			return mustMonitor(Config{
				WindowSize:    48,
				Stride:        stride,
				ZThreshold:    Threshold(z),
				Detector:      det,
				Plane:         plane,
				NoIncremental: noInc,
				Workers:       workers,
			}), plane
		},
	}
}

func abodArm(k, workers, stride int, z float64) parityArm {
	return oneHopArm(fmt.Sprintf("FastABOD-k%d-w%d-s%d", k, workers, stride), workers, stride, z,
		func() planeDetector { return &detector.FastABOD{K: k, Workers: workers} })
}

func knnDistArm(k, workers, stride int) parityArm {
	return oneHopArm(fmt.Sprintf("kNN-dist-k%d-w%d-s%d", k, workers, stride), workers, stride, 2.5,
		func() planeDetector { return &detector.KNNDist{K: k, Workers: workers} })
}

func cachedLOFArm(k, stride int) parityArm {
	return parityArm{
		name: fmt.Sprintf("CachedLOF-k%d-s%d", k, stride),
		mk: func(noInc bool) (*Monitor, *neighbors.Plane) {
			plane := neighbors.NewPlane(0)
			det := &detector.LOF{K: k}
			det.SetNeighbors(plane)
			return mustMonitor(Config{
				WindowSize:    48,
				Stride:        stride,
				ZThreshold:    Threshold(2.5),
				Detector:      detector.NewCached(det),
				Plane:         plane,
				NoIncremental: noInc,
			}), plane
		},
	}
}

func mustMonitor(cfg Config) *Monitor {
	m, err := NewMonitor(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func alertKey(a Alert) string {
	return fmt.Sprintf("%d:%x:%x", a.Sequence, math.Float64bits(a.Score), math.Float64bits(a.ZScore))
}

// TestMonitorIncrementalAlertParity streams the same points (with periodic
// Flushes, including repeated zero-new-point Flushes that take the fast
// path) through an incremental and a cold-rebuild monitor, and requires the
// alert streams to be bit-identical — sequence, raw score, and z-score —
// across detectors, strides and worker counts (the monitor always runs the
// engine at neighbors.DefaultWindowSlack; TestWindowEngineBitIdenticalCold
// sweeps other slacks). Every arm must raise alerts on both sides, so no
// arm passes by comparing empty streams.
func TestMonitorIncrementalAlertParity(t *testing.T) {
	arms := []parityArm{
		lofArm(7, 1, 12),
		lofArm(7, 4, 1),
		lofArm(15, 4, 47),
		// FastABOD's standardised scores (−ABOF) have a long left tail and a
		// short right one, so its arms flag at z > 1: at 2.5 they raised
		// no alert and compared two empty streams.
		abodArm(6, 1, 12, 1),
		abodArm(6, 4, 5, 1),
		knnDistArm(6, 4, 5),
		cachedLOFArm(5, 12),
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			inc, _ := arm.mk(false)
			cold, _ := arm.mk(true)
			defer inc.Close()
			defer cold.Close()
			rng := rand.New(rand.NewSource(21))
			var incAlerts, coldAlerts []string
			push := func(p []float64) {
				a1, err1 := inc.Push(context.Background(), p)
				a2, err2 := cold.Push(context.Background(), p)
				if err1 != nil || err2 != nil {
					t.Fatalf("push: %v / %v", err1, err2)
				}
				for _, a := range a1 {
					incAlerts = append(incAlerts, alertKey(a))
				}
				for _, a := range a2 {
					coldAlerts = append(coldAlerts, alertKey(a))
				}
			}
			flush := func() {
				a1, err1 := inc.Flush(context.Background())
				a2, err2 := cold.Flush(context.Background())
				if err1 != nil || err2 != nil {
					t.Fatalf("flush: %v / %v", err1, err2)
				}
				for _, a := range a1 {
					incAlerts = append(incAlerts, alertKey(a))
				}
				for _, a := range a2 {
					coldAlerts = append(coldAlerts, alertKey(a))
				}
			}
			for i := 0; i < 300; i++ {
				p := inlier(rng)
				if i%53 == 17 {
					p = anomaly(rng)
				}
				push(p)
				if i%41 == 40 {
					flush()
					flush() // zero new points: the fast path, alert-identical
				}
			}
			if len(incAlerts) == 0 || len(coldAlerts) == 0 {
				t.Fatalf("no alerts to compare: incremental %d, cold %d", len(incAlerts), len(coldAlerts))
			}
			if strings.Join(incAlerts, "\n") != strings.Join(coldAlerts, "\n") {
				t.Fatalf("alert streams diverged\nincremental (%d):\n%s\ncold (%d):\n%s",
					len(incAlerts), strings.Join(incAlerts, "\n"), len(coldAlerts), strings.Join(coldAlerts, "\n"))
			}
			if inc.Evaluations() != cold.Evaluations() {
				t.Fatalf("evaluations diverged: %d vs %d", inc.Evaluations(), cold.Evaluations())
			}
			st := inc.Stats()
			if !st.Incremental || st.Arrivals == 0 {
				t.Fatalf("incremental arm never engaged the engine: %s", st)
			}
			if cs := cold.Stats(); cs.Incremental {
				t.Fatal("NoIncremental arm ran the engine")
			}
			t.Logf("%d alerts each; incremental %s", len(incAlerts), st)
		})
	}
}

// TestMonitorFastFlush pins the zero-new-point Flush satellite: the window
// is not rebuilt (no new plane computation or publish, no detector pass),
// the evaluation counter still advances, and the flagging stage genuinely
// re-runs — with a MaxFlagsPerWindow cap, the runner-up that the first
// evaluation's cap suppressed is flagged by the second.
func TestMonitorFastFlush(t *testing.T) {
	plane := neighbors.NewPlane(0)
	det := &detector.LOF{K: 5}
	det.SetNeighbors(plane)
	m := mustMonitor(Config{
		WindowSize:        MinWindowSize,
		Stride:            MinWindowSize,
		ZThreshold:        Threshold(0),
		MaxFlagsPerWindow: 1,
		Detector:          det,
		Plane:             plane,
	})
	defer m.Close()
	rng := rand.New(rand.NewSource(13))
	var first []Alert
	for i := 0; i < MinWindowSize; i++ {
		alerts, err := m.Push(context.Background(), inlier(rng))
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, alerts...)
	}
	if len(first) != 1 {
		t.Fatalf("fill evaluation flagged %d points, want exactly the cap 1", len(first))
	}
	evalsBefore := m.Evaluations()
	publishesBefore := m.Stats().Publishes
	planeBefore := plane.Stats()
	second, err := m.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Evaluations() != evalsBefore+1 {
		t.Error("fast flush did not count as an evaluation")
	}
	st := m.Stats()
	if st.FastFlushes != 1 {
		t.Errorf("FastFlushes = %d, want 1", st.FastFlushes)
	}
	if st.Publishes != publishesBefore {
		t.Error("fast flush published a fresh neighbourhood")
	}
	planeAfter := plane.Stats()
	if planeAfter.Computations != planeBefore.Computations || planeAfter.Publishes != planeBefore.Publishes {
		t.Error("fast flush rebuilt plane state for an identical window")
	}
	// The cap suppressed the second-highest scorer; an honest re-run of the
	// flagging stage (what a full re-evaluation would also do) flags it now.
	if len(second) != 1 {
		t.Fatalf("fast flush flagged %d points, want the capped runner-up", len(second))
	}
	if second[0].Sequence == first[0].Sequence {
		t.Error("fast flush re-alerted the already-flagged point")
	}
	// A third flush continues down the ranking or runs dry — but never
	// re-alerts.
	third, err := m.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range third {
		if a.Sequence == first[0].Sequence || a.Sequence == second[0].Sequence {
			t.Error("repeated fast flush re-alerted a flagged point")
		}
	}
}

// TestMonitorPushDimValidation pins the dimensionality satellite: the first
// point (or FeatureNames) fixes d; a mismatched later point is rejected at
// Push with an error naming its stream sequence, and is not retained.
func TestMonitorPushDimValidation(t *testing.T) {
	m := mustMonitor(Config{WindowSize: MinWindowSize, Detector: &detector.LOF{K: 3}})
	ctx := context.Background()
	if _, err := m.Push(ctx, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Push(ctx, []float64{1, 2})
	if err == nil {
		t.Fatal("mismatched point accepted")
	}
	if !strings.Contains(err.Error(), "sequence 1") {
		t.Errorf("error %q does not name the offending sequence", err)
	}
	if m.Seen() != 1 {
		t.Errorf("rejected point was retained (Seen=%d)", m.Seen())
	}
	// The stream continues fine at the established dimensionality.
	if _, err := m.Push(ctx, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}

	// Empty first point.
	m2 := mustMonitor(Config{WindowSize: MinWindowSize, Detector: &detector.LOF{K: 3}})
	if _, err := m2.Push(ctx, nil); err == nil {
		t.Error("empty first point accepted")
	}

	// FeatureNames fix d before any point arrives.
	m3 := mustMonitor(Config{
		WindowSize:   MinWindowSize,
		Detector:     &detector.LOF{K: 3},
		FeatureNames: []string{"a", "b"},
	})
	if _, err := m3.Push(ctx, []float64{1, 2, 3}); err == nil {
		t.Error("point wider than FeatureNames accepted")
	}
}

// referenceStreamMonitor builds the reference stream workload of the perf
// gate and the repair-fraction ceiling: W=256, stride=64, 20 dimensions,
// LOF k=15, default slack, over a seeded Gaussian stream.
func referenceStreamMonitor(t testing.TB, noInc bool, workers int) (*Monitor, *neighbors.Plane) {
	plane := neighbors.NewPlane(0)
	det := &detector.LOF{K: 15, Workers: workers}
	det.SetNeighbors(plane)
	m, err := NewMonitor(Config{
		WindowSize:    256,
		Stride:        64,
		ZThreshold:    Threshold(3),
		Detector:      det,
		Plane:         plane,
		NoIncremental: noInc,
		Workers:       workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, plane
}

func referencePoints(total int) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	pts := make([][]float64, total)
	for i := range pts {
		p := make([]float64, 20)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestStreamRepairFractionReference is the deterministic ceiling gate on
// the reference workload: the fraction of survivor k-lists that need a full
// rescan per stride must stay below the recorded ceiling. The stream is
// fully seeded and repair decisions are per-slot deterministic, so the
// fraction is exactly reproducible; a regression here means the reservoir
// slack or the truncation boundary got less effective. check.sh runs this
// test by name.
func TestStreamRepairFractionReference(t *testing.T) {
	m, _ := referenceStreamMonitor(t, false, 4)
	defer m.Close()
	for _, p := range referencePoints(256 + 64*20) {
		if _, err := m.Push(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Evaluations != 21 {
		t.Fatalf("%d evaluations, want 21", st.Evaluations)
	}
	if !st.Incremental || st.EngineRebuilds != 1 {
		t.Fatalf("engine did not stay live: %s", st)
	}
	// Measured 0.024 on the seeded stream (deterministic: per-slot repair
	// decisions do not depend on sharding); 0.05 leaves 2× headroom for
	// intentional heuristic changes while still catching a broken
	// truncation boundary (which sends the fraction toward 1).
	const ceiling = 0.05
	if f := st.RepairFraction(); f > ceiling {
		t.Errorf("repair fraction %.4f exceeds ceiling %.2f (%s)", f, ceiling, st)
	}
	t.Logf("reference workload: %s", st)
}

// TestMonitorIncrementalSoak extends the soak satellite: ≥ 50 full ring
// wraparounds on the incremental path, pinning bounded memory (plane
// entries, flagged set, pending arrivals), a single engine build for the
// whole stream, and that the detector's every kNN query is answered from
// the engine's published neighbourhood — the plane never computes one.
func TestMonitorIncrementalSoak(t *testing.T) {
	const (
		windowSize  = 40
		stride      = 20
		wraparounds = 50
	)
	plane := neighbors.NewPlane(0)
	det := &detector.LOF{K: 5}
	det.SetNeighbors(plane)
	m := mustMonitor(Config{
		WindowSize: windowSize,
		Stride:     stride,
		ZThreshold: Threshold(4),
		Detector:   det,
		Plane:      plane,
	})
	defer m.Close()
	rng := rand.New(rand.NewSource(31))
	total := windowSize * (wraparounds + 1)
	alerted := map[int]int{}
	for i := 0; i < total; i++ {
		p := inlier(rng)
		if i%89 == 0 && i > windowSize {
			p = anomaly(rng)
		}
		alerts, err := m.Push(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alerts {
			alerted[a.Sequence]++
		}
		if live := m.FlaggedLive(); live > windowSize {
			t.Fatalf("flagged set grew past the window: %d", live)
		}
		if ps := plane.Stats(); ps.Entries > 4 {
			t.Fatalf("%d plane entries resident on a nil-explainer stream, want ≤ 4", ps.Entries)
		}
		// Slot dedup bounds the arrival backlog by the window size even
		// when evaluations are far apart (before the first fill, or a
		// stride lapping the ring).
		if len(m.pending) > windowSize {
			t.Fatalf("pending arrivals %d exceed the window %d", len(m.pending), windowSize)
		}
	}
	for seq, n := range alerted {
		if n != 1 {
			t.Errorf("sequence %d alerted %d times", seq, n)
		}
	}
	st := m.Stats()
	if st.EngineRebuilds != 1 {
		t.Errorf("engine rebuilt %d times over a steady stream, want 1", st.EngineRebuilds)
	}
	wantEvals := (total - windowSize) / stride
	if st.Evaluations != wantEvals+1 {
		t.Errorf("%d evaluations, want %d", st.Evaluations, wantEvals+1)
	}
	if st.Publishes != st.Evaluations {
		t.Errorf("publishes %d != evaluations %d", st.Publishes, st.Evaluations)
	}
	ps := plane.Stats()
	if ps.Evictions != 0 {
		t.Errorf("plane fell back to LRU eviction (%d)", ps.Evictions)
	}
	if ps.Computations != 0 || ps.Hits != st.Evaluations {
		t.Errorf("plane computed %d neighbourhoods and hit %d times over %d evaluations; want 0 and one hit each",
			ps.Computations, ps.Hits, st.Evaluations)
	}
	t.Logf("incremental soak: %s; plane %s", st, plane.Stats())
}

// TestMonitorsSharingScoreMemo: two monitors scoring different streams
// through one detector.Cached raise exactly the alerts a monitor with a
// detector of its own raises, on the engine path and on the cold path.
// Window names repeat across monitors ("window-N"), so a memo keyed by
// dataset name would serve one monitor the other's scores, and each
// monitor's release would forget the other's entries.
func TestMonitorsSharingScoreMemo(t *testing.T) {
	for _, noInc := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoIncremental=%v", noInc), func(t *testing.T) {
			mk := func(det core.Detector) *Monitor {
				return mustMonitor(Config{WindowSize: 40, Stride: 10, ZThreshold: Threshold(2), Detector: det, NoIncremental: noInc})
			}
			shared := detector.NewCached(detector.NewLOF(5))
			a, b, ref := mk(shared), mk(shared), mk(detector.NewLOF(5))
			ra, rb := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
			var got, want []string
			for i := 0; i < 200; i++ {
				pb := inlier(rb)
				if i%17 == 5 {
					pb = anomaly(rb)
				}
				if _, err := a.Push(context.Background(), inlier(ra)); err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					m   *Monitor
					out *[]string
				}{{b, &got}, {ref, &want}} {
					alerts, err := c.m.Push(context.Background(), pb)
					if err != nil {
						t.Fatal(err)
					}
					for _, al := range alerts {
						*c.out = append(*c.out, alertKey(al))
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("reference monitor raised no alerts")
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("monitor sharing a score memo diverged:\n%v\nwant\n%v", got, want)
			}
			if inc := b.Stats().Incremental; inc == noInc {
				t.Fatalf("Stats().Incremental = %v with NoIncremental %v", inc, noInc)
			}
		})
	}
}

// TestMonitorUsesDetectorPlane: a monitor left to find its plane reads it
// from its detector. A NewLOF detector brings a plane of its own, so the
// engine publishes there and the detector never computes a neighbourhood;
// a plane the detector does not read is refused.
func TestMonitorUsesDetectorPlane(t *testing.T) {
	det := detector.NewLOF(5)
	m := mustMonitor(Config{WindowSize: 40, Stride: 10, ZThreshold: Threshold(4), Detector: det})
	defer m.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if _, err := m.Push(context.Background(), inlier(rng)); err != nil {
			t.Fatal(err)
		}
	}
	st, ps := m.Stats(), det.Neighbors.Stats()
	if !st.Incremental || st.Evaluations == 0 {
		t.Fatalf("monitor did not run the engine: %s", st)
	}
	if ps.Computations != 0 || ps.Hits != st.Evaluations {
		t.Fatalf("detector's plane computed %d neighbourhoods and hit %d times over %d evaluations; want 0 and one hit each",
			ps.Computations, ps.Hits, st.Evaluations)
	}
	for _, d := range []core.Detector{det, detector.NewCached(det), &detector.LOF{K: 5}, detector.NewIsolationForest(1)} {
		if _, err := NewMonitor(Config{WindowSize: 40, Detector: d, Plane: neighbors.NewPlane(0)}); err == nil {
			t.Errorf("%T: a plane the detector does not read was accepted", d)
		}
	}
	if _, err := NewMonitor(Config{WindowSize: 40, Detector: detector.NewCached(det), Plane: det.Neighbors}); err != nil {
		t.Errorf("the detector's own plane was refused: %v", err)
	}
}

// TestMonitorPlanelessDetectorRunsCold: a zero-value LOF has no plane, so
// there is nowhere to publish the engine's neighbourhood. The monitor
// scores every window cold and raises the alerts the engine arm raises.
func TestMonitorPlanelessDetectorRunsCold(t *testing.T) {
	cold := mustMonitor(Config{WindowSize: 48, Stride: 12, ZThreshold: Threshold(2.5), Detector: &detector.LOF{K: 5}})
	inc := mustMonitor(Config{WindowSize: 48, Stride: 12, ZThreshold: Threshold(2.5), Detector: detector.NewLOF(5)})
	defer cold.Close()
	defer inc.Close()
	rng := rand.New(rand.NewSource(21))
	var coldAlerts, incAlerts []string
	for i := 0; i < 300; i++ {
		p := inlier(rng)
		if i%53 == 17 {
			p = anomaly(rng)
		}
		for _, c := range []struct {
			m   *Monitor
			out *[]string
		}{{cold, &coldAlerts}, {inc, &incAlerts}} {
			alerts, err := c.m.Push(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alerts {
				*c.out = append(*c.out, alertKey(a))
			}
		}
	}
	if st := cold.Stats(); st.Incremental || st.Publishes != 0 {
		t.Fatalf("plane-less monitor ran the engine: %s", st)
	}
	if !inc.Stats().Incremental {
		t.Fatal("engine arm never engaged the engine")
	}
	if len(incAlerts) == 0 {
		t.Fatal("no alerts to compare")
	}
	if strings.Join(coldAlerts, "\n") != strings.Join(incAlerts, "\n") {
		t.Fatalf("alert streams diverged\ncold:\n%s\nengine:\n%s", strings.Join(coldAlerts, "\n"), strings.Join(incAlerts, "\n"))
	}
}
