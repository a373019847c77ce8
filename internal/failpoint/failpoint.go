// Package failpoint is deterministic fault injection for crash and
// degradation testing. Code under test declares named sites with
// set.Eval("site"); a test (or an operator chasing a bug, via anexd's
// -failpoints flag / ANEXD_FAILPOINTS env var) parses a spec into a Set
// that arms actions against those sites — return an error, panic, or
// delay — optionally only on the Nth hit, which is what lets a
// crash-schedule test walk a fault through every write of a scripted
// history.
//
// A Set is a value, not process state: it travels with the work it
// faults, on the context.Context of a request or computation (With, From)
// or in the configuration of a store that takes no context. Two tests
// with two sets never see each other's faults, so fault tests run in
// parallel. A nil Set is disarmed: Eval returns nil without a lock or an
// allocation, so production code leaves its sites compiled in and pays
// one context lookup per site it reaches.
//
// Spec grammar (Parse):
//
//	spec    := site "=" action *( ";" site "=" action )
//	action  := ( "error" | "panic" | "delay:" duration ) [ "@" hit ]
//
// "error" makes Eval return ErrInjected wrapped with the site name;
// "panic" panics with the site name; "delay:50ms" sleeps then returns
// nil. A trailing "@N" fires the action only on the site's Nth hit
// (1-based) and disarms it afterwards; without it the action fires on
// every hit. Each Set counts its own hits per site, from zero at Parse.
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel every "error" action returns (wrapped with
// the site name). Code that must distinguish an injected fault from a
// real one — the crash-schedule harness, degraded-mode plumbing tests —
// checks errors.Is(err, ErrInjected).
var ErrInjected = errors.New("failpoint: injected fault")

// Kind is an armed action's behaviour at its site.
type Kind uint8

const (
	// KindError makes Eval return ErrInjected wrapped with the site name.
	KindError Kind = iota + 1
	// KindPanic makes Eval panic with the site name.
	KindPanic
	// KindDelay makes Eval sleep for the configured duration, then return
	// nil — a latency fault, not a failure.
	KindDelay
)

// action is one armed site.
type action struct {
	kind  Kind
	delay time.Duration
	onHit int // fire only on the Nth hit (1-based); 0 = every hit
	hits  int // Eval calls observed since Parse
	fired bool
}

// Set is one parsed spec: its armed sites and their hit counters. Safe
// for concurrent use; the nil Set arms nothing.
type Set struct {
	mu    sync.Mutex
	sites map[string]*action
}

type ctxKey struct{}

// With returns ctx carrying s, so every site reached under the returned
// context evaluates s. A nil s returns ctx unchanged.
func With(ctx context.Context, s *Set) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the Set ctx carries, or nil when it carries none.
func From(ctx context.Context) *Set {
	s, _ := ctx.Value(ctxKey{}).(*Set)
	return s
}

// Eval is the hook compiled into code under test: nil on a nil Set or an
// unarmed site, otherwise the site's armed action runs. Each call against
// an armed site increments its hit counter whether or not the action
// fires.
func (s *Set) Eval(site string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	a, ok := s.sites[site]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	a.hits++
	fire := !a.fired && (a.onHit == 0 || a.hits == a.onHit)
	if fire && a.onHit > 0 {
		a.fired = true // one-shot: "@N" actions disarm after firing
	}
	kind, delay := a.kind, a.delay
	s.mu.Unlock()
	if !fire {
		return nil
	}
	switch kind {
	case KindPanic:
		panic(fmt.Sprintf("failpoint: injected panic at %q", site))
	case KindDelay:
		time.Sleep(delay)
		return nil
	default:
		return fmt.Errorf("site %q: %w", site, ErrInjected)
	}
}

// Hits returns how many Eval calls the armed site has observed. Zero for
// unarmed or unknown sites and on a nil Set.
func (s *Set) Hits(site string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.sites[site]; ok {
		return a.hits
	}
	return 0
}

// Parse parses spec into a Set with every hit counter at zero. An empty
// spec is an error: a disarmed Set is the nil one.
func Parse(spec string) (*Set, error) {
	parsed := make(map[string]*action)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, act, ok := strings.Cut(clause, "=")
		site, act = strings.TrimSpace(site), strings.TrimSpace(act)
		if !ok || site == "" || act == "" {
			return nil, fmt.Errorf("failpoint: malformed clause %q (want site=action)", clause)
		}
		a := &action{}
		if base, hit, ok := strings.Cut(act, "@"); ok {
			n, err := strconv.Atoi(hit)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("failpoint: site %q: bad hit selector %q (want @N, N ≥ 1)", site, hit)
			}
			a.onHit = n
			act = base
		}
		switch {
		case act == "error":
			a.kind = KindError
		case act == "panic":
			a.kind = KindPanic
		case strings.HasPrefix(act, "delay:"):
			d, err := time.ParseDuration(strings.TrimPrefix(act, "delay:"))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("failpoint: site %q: bad delay %q", site, act)
			}
			a.kind = KindDelay
			a.delay = d
		default:
			return nil, fmt.Errorf("failpoint: site %q: unknown action %q (want error, panic or delay:<dur>)", site, act)
		}
		if _, dup := parsed[site]; dup {
			return nil, fmt.Errorf("failpoint: site %q armed twice in one spec", site)
		}
		parsed[site] = a
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("failpoint: empty spec")
	}
	return &Set{sites: parsed}, nil
}
