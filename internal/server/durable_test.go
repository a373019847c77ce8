package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"anex/internal/durable"
	"anex/internal/failpoint"
)

// recoverEngine rebuilds an engine registry from recovered store records —
// the same loop cmd/anexd runs at boot.
func recoverEngine(t *testing.T, recovered []durable.Record) *Engine {
	t.Helper()
	eng := NewEngine(EngineConfig{Workers: 2})
	for _, rec := range recovered {
		if _, err := eng.RegisterCSV(rec.Name, rec.CSV, rec.Header); err != nil {
			t.Fatalf("recover %q: %v", rec.Name, err)
		}
	}
	return eng
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// TestDurableRegistrationsSurviveRestart pins the recovery warm-parity
// contract: a server rebuilt from the durable store — after registers,
// a replace, and a forget — answers /v1/explain byte-identically to the
// never-restarted server.
func TestDurableRegistrationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	store, recovered, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(recovered))
	}
	srv := New(recoverEngine(t, recovered), Config{Durable: store})
	h := srv.Handler()

	csvA, csvB, csvB2 := engineCSV(1, 90, 2), engineCSV(2, 80, 1), engineCSV(3, 80, 1)
	for _, reg := range []RegisterRequest{
		{Name: "a", CSV: csvA, Header: true},
		{Name: "b", CSV: csvB, Header: true},
		{Name: "b", CSV: csvB2, Header: true}, // replace
		{Name: "gone", CSV: csvA, Header: true},
	} {
		if resp, body := doJSON(t, h, "POST", "/v1/datasets", reg); resp.StatusCode != 200 {
			t.Fatalf("register %s: %d %s", reg.Name, resp.StatusCode, body)
		}
	}
	if resp, body := doJSON(t, h, "DELETE", "/v1/datasets/gone", nil); resp.StatusCode != 200 {
		t.Fatalf("forget: %d %s", resp.StatusCode, body)
	}
	explainA := ExplainRequest{Dataset: "a", Points: []int{0, 3}}
	explainB := ExplainRequest{Dataset: "b", Points: []int{0}, Algo: "refout"}
	_, wantA := doJSON(t, h, "POST", "/v1/explain", explainA)
	_, wantB := doJSON(t, h, "POST", "/v1/explain", explainB)
	var stats StatsResponse
	if _, body := doJSON(t, h, "GET", "/v1/stats", nil); json.Unmarshal(body, &stats) != nil {
		t.Fatal("stats unmarshal")
	}
	if stats.Durable == nil || stats.Durable.Appends != 5 {
		t.Fatalf("stats.Durable = %+v, want 5 appends (4 registers + 1 tombstone)", stats.Durable)
	}

	// "Restart": release the directory lock, recover a fresh engine from
	// the same dir, and compare the wire bytes.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, recovered2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(recovered2) != 2 {
		t.Fatalf("recovered %d datasets, want 2 (a, b — gone forgotten)", len(recovered2))
	}
	h2 := New(recoverEngine(t, recovered2), Config{Durable: store2}).Handler()
	if _, got := doJSON(t, h2, "POST", "/v1/explain", explainA); !bytes.Equal(got, wantA) {
		t.Errorf("recovered explain of a differs:\nwant %s\ngot  %s", wantA, got)
	}
	if _, got := doJSON(t, h2, "POST", "/v1/explain", explainB); !bytes.Equal(got, wantB) {
		t.Errorf("recovered explain of b (replaced payload) differs:\nwant %s\ngot  %s", wantB, got)
	}
	if resp, _ := doJSON(t, h2, "POST", "/v1/explain", ExplainRequest{Dataset: "gone", Points: []int{0}}); resp.StatusCode != 404 {
		t.Errorf("forgotten dataset resurrected: explain = %d, want 404", resp.StatusCode)
	}
}

// TestDegradedModeOnDurableWriteFailure pins graceful degradation: after
// an injected durable-write failure, explains on registered tenants keep
// succeeding, every write gets 503 + Retry-After (sticky, even after the
// fault clears), and /healthz + /v1/stats report the degraded flag.
func TestDegradedModeOnDurableWriteFailure(t *testing.T) {
	t.Parallel()
	// The first append (registering a) passes; the second faults.
	faults, err := failpoint.Parse(durable.SiteWALAppend + "=error@2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := durable.OpenWith(dir, durable.Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var degradeCalls int
	srv := New(NewEngine(EngineConfig{Workers: 2}), Config{
		Durable:   store,
		OnDegrade: func(error) { degradeCalls++ },
	})
	h := srv.Handler()

	csvA := engineCSV(1, 90, 2)
	if resp, body := doJSON(t, h, "POST", "/v1/datasets", RegisterRequest{Name: "a", CSV: csvA, Header: true}); resp.StatusCode != 200 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	resp, body := doJSON(t, h, "POST", "/v1/datasets", RegisterRequest{Name: "b", CSV: engineCSV(2, 60, 1), Header: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register under write fault: %d %s, want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(DegradedRetryAfterSeconds) {
		t.Errorf("degraded Retry-After = %q, want %q", got, strconv.Itoa(DegradedRetryAfterSeconds))
	}

	// Sticky: the fault is gone but the store fail-stopped, so writes stay
	// refused — including idempotent re-registration and forgets.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/datasets"},
		{"DELETE", "/v1/datasets/a"},
	} {
		var reqBody any
		if probe.method == "POST" {
			reqBody = RegisterRequest{Name: "a", CSV: csvA, Header: true}
		}
		if resp, _ := doJSON(t, h, probe.method, probe.path, reqBody); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s while degraded: %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
	}
	if degradeCalls != 1 {
		t.Errorf("OnDegrade called %d times, want exactly 1", degradeCalls)
	}

	// Read paths keep working: explains of the registered tenant, stats,
	// health — the service degrades, it does not die or lie.
	if resp, body := doJSON(t, h, "POST", "/v1/explain", ExplainRequest{Dataset: "a", Points: []int{0}}); resp.StatusCode != 200 {
		t.Errorf("explain while degraded: %d %s, want 200", resp.StatusCode, body)
	}
	var health HealthResponse
	if _, body := doJSON(t, h, "GET", "/healthz", nil); json.Unmarshal(body, &health) != nil {
		t.Fatal("healthz unmarshal")
	}
	if !health.Degraded || health.Status != "degraded" || health.Reason == "" {
		t.Errorf("healthz = %+v, want degraded status with a reason", health)
	}
	var stats StatsResponse
	if _, body := doJSON(t, h, "GET", "/v1/stats", nil); json.Unmarshal(body, &stats) != nil {
		t.Fatal("stats unmarshal")
	}
	if !stats.Degraded || stats.DegradedReason == "" {
		t.Errorf("stats degraded = %v reason = %q, want true with a reason", stats.Degraded, stats.DegradedReason)
	}
	if stats.UptimeMS < 0 {
		t.Errorf("uptime_ms = %d, want ≥ 0", stats.UptimeMS)
	}
}

// withFaults serves h with faults on every request's context — what
// anexd's http.Server.BaseContext does for its -failpoints set.
func withFaults(h http.Handler, faults *failpoint.Set) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(failpoint.With(r.Context(), faults)))
	})
}

// TestTransientPublicationFaultsDoNotPoison pins that one-shot injected
// faults at the cache-publication sites (plane, score memo) and the HTTP
// handler sites fail exactly one request and leave the server healthy:
// the singleflight layers release their waiters and the next request
// recomputes cleanly.
func TestTransientPublicationFaultsDoNotPoison(t *testing.T) {
	t.Parallel()
	srv := New(NewEngine(EngineConfig{Workers: 2}), Config{})
	h := srv.Handler()
	if resp, body := doJSON(t, h, "POST", "/v1/datasets", RegisterRequest{Name: "a", CSV: engineCSV(1, 90, 2), Header: true}); resp.StatusCode != 200 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	explain := ExplainRequest{Dataset: "a", Points: []int{0}}
	_, want := doJSON(t, h, "POST", "/v1/explain", explain)

	for _, site := range []string{"plane.publish", "memo.publish", SiteHTTPExplain} {
		faults, err := failpoint.Parse(site + "=error@1")
		if err != nil {
			t.Fatal(err)
		}
		fh := withFaults(h, faults)
		// A fresh dataset per site so the explain path actually recomputes
		// (a warm memo would answer without touching the faulted site).
		name := "ds-" + site
		if resp, body := doJSON(t, h, "POST", "/v1/datasets", RegisterRequest{Name: name, CSV: engineCSV(1, 90, 2), Header: true}); resp.StatusCode != 200 {
			t.Fatalf("register %s: %d %s", name, resp.StatusCode, body)
		}
		req := ExplainRequest{Dataset: name, Points: []int{0}}
		if resp, _ := doJSON(t, fh, "POST", "/v1/explain", req); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("site %s: faulted explain = %d, want 500", site, resp.StatusCode)
		}
		if resp, got := doJSON(t, fh, "POST", "/v1/explain", req); resp.StatusCode != 200 {
			t.Errorf("site %s: explain after one-shot fault = %d %s, want 200", site, resp.StatusCode, got)
		} else if !bytes.Equal(stripDatasetName(got), stripDatasetName(want)) {
			t.Errorf("site %s: post-fault explanation differs from clean baseline", site)
		}
	}

	// The register site fails one registration, and its retry lands.
	faults, err := failpoint.Parse(SiteHTTPRegister + "=error@1")
	if err != nil {
		t.Fatal(err)
	}
	fh := withFaults(h, faults)
	reg := RegisterRequest{Name: "ds-" + SiteHTTPRegister, CSV: engineCSV(1, 90, 2), Header: true}
	if resp, _ := doJSON(t, fh, "POST", "/v1/datasets", reg); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("site %s: faulted register = %d, want 500", SiteHTTPRegister, resp.StatusCode)
	}
	if resp, body := doJSON(t, fh, "POST", "/v1/datasets", reg); resp.StatusCode != 200 {
		t.Errorf("site %s: register after one-shot fault = %d %s, want 200", SiteHTTPRegister, resp.StatusCode, body)
	}
}

// stripDatasetName drops the dataset name field of an explain response so
// two responses over identical payloads compare equal.
func stripDatasetName(body []byte) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	delete(m, "dataset")
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}
