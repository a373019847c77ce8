package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// engineCSV builds the quickstart geometry (coupled pair + noise dims)
// with an anomaly at index 0, as CSV text.
func engineCSV(seed int64, n, noiseDims int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("a,b")
	for f := 0; f < noiseDims; f++ {
		fmt.Fprintf(&b, ",n%d", f)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		base := 0.25
		if rng.Intn(2) == 1 {
			base = 0.75
		}
		x, y := base+rng.NormFloat64()*0.03, base+rng.NormFloat64()*0.03
		if i == 0 {
			x, y = 0.25, 0.75
		}
		fmt.Fprintf(&b, "%.6f,%.6f", x, y)
		for f := 0; f < noiseDims; f++ {
			fmt.Fprintf(&b, ",%.6f", rng.Float64())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRegisterIdempotentSameHash(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	csv := []byte(engineCSV(1, 80, 2))
	first, err := eng.RegisterCSV("d", csv, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replaced || first.N != 80 || first.D != 4 {
		t.Fatalf("first registration = %+v", first)
	}
	// Warm the caches, then re-register the identical payload: the same
	// hash must come back, nothing replaced, caches kept.
	if _, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "d", Points: []int{0}}); err != nil {
		t.Fatal(err)
	}
	warm := eng.PlaneStats().Entries
	if warm == 0 {
		t.Fatal("explain left no plane entries; the no-eviction assertion is vacuous")
	}
	again, err := eng.RegisterCSV("d", csv, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Replaced || again.Hash != first.Hash {
		t.Errorf("identical re-registration = %+v, want idempotent with hash %s", again, first.Hash)
	}
	if got := eng.PlaneStats().Entries; got != warm {
		t.Errorf("idempotent re-registration changed plane residency %d → %d", warm, got)
	}
}

func TestRegisterReplaceReleasesOldCaches(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	if _, err := eng.RegisterCSV("d", []byte(engineCSV(1, 80, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "d", Points: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if eng.PlaneStats().Entries == 0 {
		t.Fatal("explain left no plane entries")
	}
	repl, err := eng.RegisterCSV("d", []byte(engineCSV(2, 90, 2)), true)
	if err != nil {
		t.Fatal(err)
	}
	if !repl.Replaced {
		t.Error("different payload under same name did not report Replaced")
	}
	ps := eng.PlaneStats()
	if ps.Entries != 0 {
		t.Errorf("%d plane entries survived replacement, want 0 (old dataset forgotten)", ps.Entries)
	}
	if ps.Forgets == 0 {
		t.Error("replacement recorded no plane Forgets")
	}
	// The replaced dataset's memos are gone too: a fresh explain is a cold
	// run against the new payload.
	_, _, memo := eng.Stats()
	if memo.Entries != 0 {
		t.Errorf("%d score-memo entries survived replacement, want 0", memo.Entries)
	}
}

func TestEngineForgetReleasesDataset(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	if _, err := eng.RegisterCSV("d", []byte(engineCSV(1, 80, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "d", Points: []int{0}}); err != nil {
		t.Fatal(err)
	}
	eng.Forget("d")
	if n := eng.Datasets(); n != 0 {
		t.Errorf("%d datasets registered after Forget, want 0", n)
	}
	if n := eng.PlaneStats().Entries; n != 0 {
		t.Errorf("%d plane entries resident after Forget, want 0", n)
	}
	if _, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "d", Points: []int{0}}); statusCode(err) != 404 {
		t.Errorf("explain after Forget: %v, want 404", err)
	}
}

// statusCode extracts the StatusError code (0 for nil / non-status errors).
func statusCode(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

func TestExplainRequestValidation(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	reg, err := eng.RegisterCSV("d", []byte(engineCSV(1, 80, 2)), true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  ExplainRequest
		code int
	}{
		{"unknown dataset", ExplainRequest{Dataset: "nope", Points: []int{0}}, 404},
		{"no points", ExplainRequest{Dataset: "d"}, 400},
		{"point out of range", ExplainRequest{Dataset: "d", Points: []int{80}}, 400},
		{"negative point", ExplainRequest{Dataset: "d", Points: []int{-1}}, 400},
		{"dim too large", ExplainRequest{Dataset: "d", Points: []int{0}, Dim: 9}, 400},
		{"unknown detector", ExplainRequest{Dataset: "d", Points: []int{0}, Detector: "nope"}, 400},
		{"unknown algo", ExplainRequest{Dataset: "d", Points: []int{0}, Algo: "nope"}, 400},
		{"stale hash pin", ExplainRequest{Dataset: "d", Points: []int{0}, Hash: "deadbeef"}, 409},
		{"timeout overflows duration", ExplainRequest{Dataset: "d", Points: []int{0}, TimeoutMS: 10000000000000}, 400},
		{"timeout one past the maximum", ExplainRequest{Dataset: "d", Points: []int{0}, TimeoutMS: maxTimeoutMS + 1}, 400},
	}
	for _, c := range cases {
		if _, err := eng.Explain(context.Background(), c.req); statusCode(err) != c.code {
			t.Errorf("%s: %v, want status %d", c.name, err, c.code)
		}
	}
	// The matching pin succeeds.
	if _, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "d", Points: []int{0}, Hash: reg.Hash}); err != nil {
		t.Errorf("matching hash pin rejected: %v", err)
	}
}

func TestExplainDeadline(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	// Big enough that LOF over the full view cannot finish in 1 ms.
	if _, err := eng.RegisterCSV("big", []byte(engineCSV(1, 4000, 6)), true); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Explain(context.Background(), ExplainRequest{Dataset: "big", Points: []int{0}, TimeoutMS: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("1ms-deadline explain returned %v, want DeadlineExceeded", err)
	}
}
