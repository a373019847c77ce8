package server

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestExplainDeadlineLeaksNoGoroutines runs a RefOut/LOF explanation over
// a 1000×20 tenant with a 1 ms deadline and requires the goroutine count
// to return to its baseline once Explain has returned: every scoring shard
// the deadline cut short must have exited.
func TestExplainDeadlineLeaksNoGoroutines(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 4})
	if _, err := eng.RegisterCSV("wide", []byte(engineCSV(3, 1000, 18)), true); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	_, err := eng.Explain(context.Background(), ExplainRequest{
		Dataset: "wide", Points: []int{0}, Algo: "refout", Detector: "lof", TimeoutMS: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1 ms-deadline explain returned %v, want DeadlineExceeded", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before Explain:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
