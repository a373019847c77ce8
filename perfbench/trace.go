package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share Op; Parent is the span that caused it
// (0 for an op's root). Replay spans re-run recorded work after the timed
// phase: they carry the op they replay but are not part of its wall time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time, replay bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Replay: replay,
	})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each live span's self time: its duration minus the
// part of its interval covered by its children (overlapping children are
// counted once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if !s.Replay && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Replay {
			continue
		}
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// opSelfSums returns, per op, the root span's wall time and the sum of the
// self times of all live spans of that op. For ops whose spans nest (one
// call at a time) the two agree up to clock granularity.
func opSelfSums(spans []span) map[int64][2]time.Duration {
	self := selfTimes(spans)
	out := make(map[int64][2]time.Duration)
	for _, s := range spans {
		if s.Replay {
			continue
		}
		v := out[s.Op]
		if s.Parent == 0 {
			v[0] += s.dur()
		}
		v[1] += self[s.ID]
		out[s.Op] = v
	}
	return out
}

// sumByName sums the durations of the spans named name per op, in ms.
func sumByName(spans []span, name string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += ms(s.dur())
		}
	}
	return out
}

// medianOf returns the median of a per-op map's values (0 when empty: the
// layer did no work in this workload).
func medianOf(perOp map[int64]float64) float64 {
	if len(perOp) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		xs = append(xs, v)
	}
	return median(xs)
}

// traceDir receives the span files of traced runs, relative to the
// working directory (the repository root, where run.sh builds).
const traceDir = ".bench_build/trace"

// write dumps the spans as JSON to traceDir/<name>.json.
func (t *tracer) write(name string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(traceDir, name+".json"), b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
