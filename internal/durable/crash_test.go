package durable

import (
	"fmt"
	"testing"

	"anex/internal/failpoint"
)

// crashOp is one step of the scripted history the crash schedule replays.
type crashOp struct {
	forget bool
	name   string
	gen    int // payload generation, so replaces are observable
}

// crashScript is a history with registrations, replaces, forgets and —
// under CompactEvery=3 — two compactions, so every write-path failpoint
// site is reached more than once.
var crashScript = []crashOp{
	{name: "a", gen: 1},
	{name: "b", gen: 2},
	{name: "c", gen: 3}, // compaction 1 triggers here
	{name: "a", gen: 4}, // replace
	{forget: true, name: "b"},
	{name: "d", gen: 5}, // compaction 2 triggers here
	{name: "e", gen: 6},
	{forget: true, name: "c"},
}

// applyModel folds one op into the model registry.
func applyModel(m map[string]int, op crashOp) {
	if op.forget {
		delete(m, op.name)
	} else {
		m[op.name] = op.gen
	}
}

func cloneModel(m map[string]int) map[string]int {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func modelOf(recs []Record) map[string]int {
	m := make(map[string]int, len(recs))
	for _, rec := range recs {
		var gen int
		fmt.Sscanf(string(rec.CSV), "a,b\n%d,", &gen)
		m[rec.Name] = gen
	}
	return m
}

func modelsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCrashSchedule is the tentpole's consistency proof: for EVERY
// write-path failpoint site in the store and every hit of that site the
// script reaches, inject a fault there (the in-process stand-in for
// kill -9 at that instruction), abandon the store without teardown,
// reopen the directory, and assert the recovered registry is exactly the
// acknowledged-prefix state or that state plus the in-doubt record —
// never a torn, reordered, or resurrected one.
func TestCrashSchedule(t *testing.T) {
	t.Parallel()
	for _, site := range Sites() {
		for hit := 1; hit <= len(crashScript); hit++ {
			t.Run(fmt.Sprintf("%s@%d", site, hit), func(t *testing.T) {
				t.Parallel()
				faults, err := failpoint.Parse(fmt.Sprintf("%s=error@%d", site, hit))
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				s, recovered, err := OpenWith(dir, Options{CompactEvery: 3, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				if len(recovered) != 0 {
					t.Fatalf("fresh dir recovered %d records", len(recovered))
				}

				acked := make(map[string]int) // state of every acknowledged op
				var inDoubt *crashOp          // the op that failed, if any
				for i, op := range crashScript {
					var err error
					if op.forget {
						err = s.AppendForget(op.name)
					} else {
						err = s.AppendRegister(op.name, true, csvPayload(op.gen))
					}
					if err != nil {
						failed := crashScript[i]
						inDoubt = &failed
						break // the process "died" here
					}
					applyModel(acked, op)
				}
				siteHits := faults.Hits(site)
				s.abandon() // kill -9: no Close, no flush, fds dropped

				if inDoubt == nil && siteHits < hit {
					// The script never reached this (site, hit); nothing to
					// verify beyond clean completion.
					assertRecovery(t, dir, acked, nil)
					return
				}
				assertRecovery(t, dir, acked, inDoubt)
			})
		}
	}
}

// assertRecovery reopens dir and asserts the recovered registry equals
// the pre-write state (acked) or the post-write state (acked + inDoubt).
// It then reopens once more to pin that recovery is idempotent.
func assertRecovery(t *testing.T, dir string, acked map[string]int, inDoubt *crashOp) {
	t.Helper()
	pre := cloneModel(acked)
	post := cloneModel(acked)
	if inDoubt != nil {
		applyModel(post, *inDoubt)
	}
	s, recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	got := modelOf(recovered)
	if !modelsEqual(got, pre) && !modelsEqual(got, post) {
		t.Fatalf("recovered %v, want pre-write %v or post-write %v", got, pre, post)
	}
	s.Close()

	s2, recovered2, err := Open(dir)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer s2.Close()
	if got2 := modelOf(recovered2); !modelsEqual(got2, got) {
		t.Fatalf("recovery not idempotent: first %v, second %v", got, got2)
	}
}

// TestCrashDuringRecovery pins that a fault during recovery itself loses
// nothing: Open fails cleanly, and the next Open recovers the full state.
func TestCrashDuringRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg(t, s, "a", 1)
	reg(t, s, "b", 2)
	s.Close()

	faults, err := failpoint.Parse(SiteOpen + "=error")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWith(dir, Options{Faults: faults}); err == nil {
		t.Fatal("Open under injected recovery fault succeeded, want error")
	}

	s2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := modelOf(recovered); !modelsEqual(got, map[string]int{"a": 1, "b": 2}) {
		t.Errorf("recovered %v after aborted recovery, want a=1 b=2", got)
	}
}
