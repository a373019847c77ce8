package stream

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestMonitorCancelledEvaluationLeaksNoGoroutines runs a window evaluation
// of the reference workload (W = 256, 20d, Workers 4) under a cancelled
// context, after one live evaluation has seeded the engine, and requires
// the goroutine count to return to its baseline: the engine's aborted
// repair shards and the detector's scoring loops must all have exited.
func TestMonitorCancelledEvaluationLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m, _ := referenceStreamMonitor(t, false, 4)
	pts := referencePoints(256 + 64)
	for _, p := range pts[:256+63] {
		if _, err := m.Push(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Push(ctx, pts[256+63]); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluation under a cancelled context returned %v, want context.Canceled", err)
	}
	m.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls, for at most five seconds, until no more goroutines
// run than base, and otherwise fails with every goroutine's stack.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before the call:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
