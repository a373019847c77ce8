package failpoint

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustParse(t *testing.T, spec string) *Set {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDisarmedEvalIsNil: the nil Set — what a context without a set
// yields — arms nothing and counts nothing.
func TestDisarmedEvalIsNil(t *testing.T) {
	t.Parallel()
	s := From(context.Background())
	if s != nil {
		t.Fatalf("From(Background) = %v, want nil", s)
	}
	if err := s.Eval("anything"); err != nil {
		t.Fatalf("disarmed Eval returned %v, want nil", err)
	}
	if got := s.Hits("anything"); got != 0 {
		t.Errorf("nil Set Hits = %d, want 0", got)
	}
	if ctx := context.Background(); With(ctx, nil) != ctx {
		t.Error("With(ctx, nil) wrapped the context")
	}
}

func TestErrorAction(t *testing.T) {
	t.Parallel()
	s := From(With(context.Background(), mustParse(t, "a.b=error")))
	err := s.Eval("a.b")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Eval = %v, want ErrInjected", err)
	}
	if err := s.Eval("other.site"); err != nil {
		t.Errorf("unarmed site returned %v, want nil", err)
	}
	// Every-hit action keeps firing.
	if err := s.Eval("a.b"); !errors.Is(err, ErrInjected) {
		t.Errorf("second Eval = %v, want ErrInjected", err)
	}
	if got := s.Hits("a.b"); got != 2 {
		t.Errorf("Hits = %d, want 2", got)
	}
}

func TestOnHitSelectorIsOneShot(t *testing.T) {
	t.Parallel()
	s := mustParse(t, "s=error@3")
	for i := 1; i <= 5; i++ {
		err := s.Eval("s")
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Errorf("hit %d: err = %v, want ErrInjected", i, err)
		}
		if i != 3 && err != nil {
			t.Errorf("hit %d: err = %v, want nil", i, err)
		}
	}
	if got := s.Hits("s"); got != 5 {
		t.Errorf("Hits = %d, want 5", got)
	}
}

func TestPanicAction(t *testing.T) {
	t.Parallel()
	s := mustParse(t, "p=panic")
	defer func() {
		if recover() == nil {
			t.Error("panic action did not panic")
		}
	}()
	s.Eval("p")
}

func TestDelayAction(t *testing.T) {
	t.Parallel()
	s := mustParse(t, "d=delay:30ms")
	start := time.Now()
	if err := s.Eval("d"); err != nil {
		t.Fatalf("delay action returned %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("delay action returned after %v, want ≥ 30ms", elapsed)
	}
}

func TestSpecParsing(t *testing.T) {
	t.Parallel()
	bad := []string{"", "=error", "s=", "s=explode", "s=error@0", "s=error@x",
		"s=delay:nope", "s=error;s=panic"}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
	s := mustParse(t, " a=error ; b=delay:1ms ; c=panic@2 ")
	want := map[string]action{
		"a": {kind: KindError},
		"b": {kind: KindDelay, delay: time.Millisecond},
		"c": {kind: KindPanic, onHit: 2},
	}
	if len(s.sites) != len(want) {
		t.Fatalf("parsed %d sites, want %d", len(s.sites), len(want))
	}
	for site, w := range want {
		if got, ok := s.sites[site]; !ok || *got != w {
			t.Errorf("site %q parsed as %+v, want %+v", site, got, w)
		}
	}
}

// TestEvalConcurrent pins that a Set is race-free under -race: many
// goroutines hammering one armed site count every hit, and the one-shot
// fires exactly once.
func TestEvalConcurrent(t *testing.T) {
	t.Parallel()
	s := mustParse(t, "hot=error@50")
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fired int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if s.Eval("hot") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Hits("hot"); got != 800 {
		t.Errorf("Hits = %d, want 800", got)
	}
	if fired != 1 {
		t.Errorf("one-shot fired %d times, want 1", fired)
	}
}
