package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anex/internal/detector"
	"anex/internal/failpoint"
)

// TestRegisterBodyCap pins the request-body cap at the HTTP edge: a
// registration past maxBodyBytes is refused with 413 (not a 400 decode
// error, not a 500), and a normal registration on the same server still
// succeeds.
func TestRegisterBodyCap(t *testing.T) {
	ts := httptest.NewServer(New(NewEngine(EngineConfig{Workers: 1}), Config{}).Handler())
	defer ts.Close()

	// The oversized body streams: a valid JSON prefix, then a CSV string
	// one byte longer than the cap allows for the whole body.
	prefix := `{"name":"big","header":true,"csv":"`
	filler := io.LimitReader(repeatByte('1'), maxBodyBytes)
	big := io.MultiReader(strings.NewReader(prefix), filler, strings.NewReader(`"}`))
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: %d %s, want 413", resp.StatusCode, raw)
	}

	reg, err := json.Marshal(RegisterRequest{Name: "d", CSV: engineCSV(1, 80, 2), Header: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal register after an oversized one: %d %s", resp.StatusCode, raw)
	}
}

// TestExplainPointCap pins the per-request point cap at the HTTP edge: a
// request naming more points than the dataset has rows can only repeat
// points, so it is refused with 400 before any explainer work, while a
// request at the cap on the same server still answers 200.
func TestExplainPointCap(t *testing.T) {
	const n = 40
	eng := NewEngine(EngineConfig{Workers: 1})
	if _, err := eng.RegisterCSV("d", []byte(engineCSV(6, n, 2)), true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	post := func(points []int) (int, string) {
		t.Helper()
		body, err := json.Marshal(ExplainRequest{Dataset: "d", Points: points, Algo: "beam", Detector: "lof", Dim: 2, Top: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}
	over := make([]int, n+1) // every entry repeats point 0
	if code, raw := post(over); code != http.StatusBadRequest {
		t.Fatalf("%d points on a %d-row dataset: %d %s, want 400", len(over), n, code, raw)
	}
	atCap := make([]int, n)
	for i := range atCap {
		atCap[i] = i
	}
	if code, raw := post(atCap); code != http.StatusOK {
		t.Fatalf("%d points on a %d-row dataset: %d %s, want 200", len(atCap), n, code, raw)
	}
}

// TestSlowExplainOutlivesBodyDeadline pins that the body read deadline
// bounds only the body: an explanation still running well after the
// deadline would have fired keeps its request context and answers 200.
// A connection-wide read deadline would instead cancel r.Context() once
// the body hits EOF and net/http's background read times out.
func TestSlowExplainOutlivesBodyDeadline(t *testing.T) {
	t.Parallel()
	eng := NewEngine(EngineConfig{Workers: 1})
	if _, err := eng.RegisterCSV("d", []byte(engineCSV(5, 80, 2)), true); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	srv.bodyTimeout = 50 * time.Millisecond
	h := srv.Handler()
	var cancelled atomic.Bool
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		cancelled.Store(r.Context().Err() != nil)
	}))
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Config.IdleTimeout = time.Minute
	// The first score-memo publication sleeps past the body deadline.
	faults, err := failpoint.Parse(detector.SiteMemoPublish + "=delay:300ms@1")
	if err != nil {
		t.Fatal(err)
	}
	ts.Config.BaseContext = func(net.Listener) context.Context {
		return failpoint.With(context.Background(), faults)
	}
	ts.Start()
	defer ts.Close()

	body, err := json.Marshal(ExplainRequest{Dataset: "d", Points: []int{0}, Algo: "beam", Detector: "lof", Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow explain: %d %s, want 200", resp.StatusCode, raw)
	}
	if cancelled.Load() {
		t.Fatal("request context was cancelled while the handler ran past the body deadline")
	}
}

// TestStalledBodyHitsDeadline pins that the body deadline is in force: a
// client that sends headers and part of a body, then stalls, gets a 408
// once the deadline passes instead of holding the connection open.
func TestStalledBodyHitsDeadline(t *testing.T) {
	srv := New(NewEngine(EngineConfig{Workers: 1}), Config{})
	srv.bodyTimeout = 50 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/datasets HTTP/1.1\r\nHost: anexd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"name\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a stalled body: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body: %d %s, want 408", resp.StatusCode, raw)
	}
}

// repeatByte is an endless reader of one byte value.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestEngineStatsIsolation pins that /v1/stats reports each engine's own
// prune ledger: one engine routes a wide dataset (24d, n = 300, so
// RefOut's 17d pool projections exceed the KD-tree cutoff) through the
// coded brute-force tier, and a second engine in the same process, serving only
// low-dimensional data, must still report zero prune activity.
func TestEngineStatsIsolation(t *testing.T) {
	ctx := context.Background()
	wide := NewEngine(EngineConfig{Workers: 2})
	if _, err := wide.RegisterCSV("wide", []byte(engineCSV(3, 300, 22)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Explain(ctx, ExplainRequest{Dataset: "wide", Points: []int{0}, Algo: "refout", Detector: "lof"}); err != nil {
		t.Fatal(err)
	}
	narrow := NewEngine(EngineConfig{Workers: 2})
	if _, err := narrow.RegisterCSV("narrow", []byte(engineCSV(4, 120, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := narrow.Explain(ctx, ExplainRequest{Dataset: "narrow", Points: []int{0}, Algo: "refout", Detector: "lof"}); err != nil {
		t.Fatal(err)
	}

	stats := func(eng *Engine) StatsResponse {
		t.Helper()
		ts := httptest.NewServer(New(eng, Config{}).Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if w := stats(wide); w.Prune.Indexes == 0 || w.Prune.Candidates == 0 {
		t.Fatalf("wide engine never engaged the coded brute-force tier; the isolation check is vacuous: %+v", w.Prune)
	}
	n := stats(narrow)
	if n.Prune.Indexes != 0 || n.Prune.Candidates != 0 || n.Prune.Scanned != 0 ||
		n.Prune.QuantCandidates != 0 || n.Prune.QuantRejected != 0 {
		t.Fatalf("narrow engine reports another engine's prune activity: %+v", n.Prune)
	}
}
