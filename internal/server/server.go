package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anex/internal/durable"
	"anex/internal/failpoint"
)

// DegradedRetryAfterSeconds is the Retry-After hint attached to the 503 a
// degraded server answers writes with. Degradation is sticky until an
// operator fixes the disk and restarts, so the hint is deliberately
// coarse — it spaces out well-behaved clients without promising recovery.
const DegradedRetryAfterSeconds = 30

// The serving layer's failpoint sites: an armed error action fails the
// handler before it touches the engine, exercising the client's retry
// path against real HTTP 5xx responses.
const (
	SiteHTTPRegister = "server.register"
	SiteHTTPExplain  = "server.explain"
)

// Config tunes the serving layer around an Engine.
type Config struct {
	// MaxInflight bounds concurrently admitted explanation requests
	// (0 → the engine's worker budget: past that point extra requests only
	// queue inside the scoring pools, so shedding them keeps latency flat).
	MaxInflight int
	// Rate, when positive, caps admitted POST requests per second with a
	// token bucket of capacity Burst (0 → ceil(Rate)).
	Rate  float64
	Burst int
	// Durable, when set, write-ahead-logs every registration and forget
	// before it is applied, so the registry survives restarts. A durable
	// write failure flips the server into read-only degraded mode.
	Durable *durable.Store
	// OnDegrade, when set, is called once with the failure that flipped
	// the server into degraded mode (the daemon's logging hook).
	OnDegrade func(error)
}

// Server is the HTTP/JSON skin over an Engine: admission control, wire
// codecs, per-endpoint latency counters, and — when a durable store is
// attached — write-ahead persistence with read-only degradation on
// durable-write failure. Mount Handler on any http.Server.
type Server struct {
	engine    *Engine
	gate      *admission
	store     *durable.Store
	onDegrade func(error)
	start     time.Time

	degraded atomic.Bool

	mu             sync.Mutex
	degradedReason string
	endpoints      map[string]*EndpointStats

	// bodyTimeout bounds reading one request body (bodyReadTimeout;
	// shortened only by tests).
	bodyTimeout time.Duration
}

// New builds a server over engine.
func New(engine *Engine, cfg Config) *Server {
	maxInflight := cfg.MaxInflight
	if maxInflight == 0 {
		maxInflight = engine.Workers()
	}
	return &Server{
		engine:    engine,
		gate:      newAdmission(maxInflight, cfg.Rate, cfg.Burst),
		store:     cfg.Durable,
		onDegrade: cfg.OnDegrade,
		start:     time.Now(),
		endpoints: make(map[string]*EndpointStats),

		bodyTimeout: bodyReadTimeout,
	}
}

// degrade flips the server into read-only degraded mode: existing tenants
// keep getting explanations, every later write is refused with 503 +
// Retry-After. The first cause wins; degradation is sticky until restart
// (the durable store fail-stopped, so there is nothing to probe).
func (s *Server) degrade(err error) {
	s.mu.Lock()
	if s.degradedReason == "" {
		s.degradedReason = err.Error()
	}
	s.mu.Unlock()
	if s.degraded.CompareAndSwap(false, true) && s.onDegrade != nil {
		s.onDegrade(err)
	}
}

// Degraded reports whether the server is in read-only degraded mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }

func (s *Server) degradedError() *StatusError {
	s.mu.Lock()
	reason := s.degradedReason
	s.mu.Unlock()
	return unavailable("durable store failed, registry is read-only (explanations of registered datasets still served): %s", reason)
}

// rejectDegraded answers a write request with 503 + Retry-After when the
// server is degraded. Reports whether the request was rejected.
func (s *Server) rejectDegraded(w http.ResponseWriter) bool {
	if !s.degraded.Load() {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(DegradedRetryAfterSeconds))
	writeError(w, s.degradedError())
	return true
}

// Handler returns the service's route table:
//
//	POST   /v1/datasets         register a CSV payload        (admission-gated)
//	DELETE /v1/datasets/{name}  forget a dataset              (admission-gated)
//	POST   /v1/explain          explain points of a dataset   (admission-gated)
//	GET    /v1/stats            reuse + admission counters    (always admitted)
//	GET    /healthz             liveness                      (always admitted)
//
// The read-only endpoints bypass admission so health checks and
// observability keep working while the service sheds load.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.instrument("POST /v1/datasets", true, s.handleRegister))
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.instrument("DELETE /v1/datasets/{name}", true, s.handleForget))
	mux.HandleFunc("POST /v1/explain", s.instrument("POST /v1/explain", true, s.handleExplain))
	mux.HandleFunc("GET /v1/stats", s.instrument("GET /v1/stats", false, s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument("GET /healthz", false, s.handleHealthz))
	return mux
}

// instrument wraps a handler with admission (when gated) and the
// per-endpoint latency counters reported by /v1/stats.
func (s *Server) instrument(name string, gated bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &codeWriter{ResponseWriter: w}
		if gated {
			release, retryAfter, ok := s.gate.acquire()
			if !ok {
				cw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
				writeError(cw, &StatusError{Code: http.StatusTooManyRequests, Msg: "saturated; retry later"})
				s.record(name, start, cw.code)
				return
			}
			defer release()
		}
		h(cw, r)
		s.record(name, start, cw.code)
	}
}

func (s *Server) record(name string, start time.Time, code int) {
	ms := time.Since(start).Milliseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.endpoints[name]
	if ep == nil {
		ep = &EndpointStats{}
		s.endpoints[name] = ep
	}
	ep.Count++
	if code >= 400 {
		ep.Errors++
	}
	ep.TotalMS += ms
	if ms > ep.MaxMS {
		ep.MaxMS = ms
	}
}

// codeWriter captures the response status for the latency counters.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// sets the per-request body read deadline through it.
func (w *codeWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleRegister is the durable write path: validate (parse + hash),
// append the record to the write-ahead log, and only then commit to the
// in-memory registry — so an acknowledged registration is always durable,
// and a crash between append and commit leaves a record recovery replays.
// A durable append failure degrades the server instead of crashing it.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Eval(SiteHTTPRegister); err != nil {
		writeError(w, err)
		return
	}
	if s.rejectDegraded(w) {
		return
	}
	var req RegisterRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	pending, err := s.engine.PrepareRegister(req.Name, []byte(req.CSV), req.Header)
	if err != nil {
		writeError(w, err)
		return
	}
	// Identical re-registrations skip the log: every registration the
	// engine holds went through it, so the record is already durable —
	// which is what makes a client's blind retry of a lost ack free.
	if s.store != nil && !pending.Identical() {
		if err := s.store.AppendRegister(req.Name, req.Header, []byte(req.CSV)); err != nil {
			s.degrade(err)
			s.rejectDegraded(w)
			return
		}
	}
	writeJSON(w, http.StatusOK, pending.Commit())
}

// handleForget deregisters a dataset, writing a durable tombstone first
// (same WAL-before-registry ordering as registration).
func (s *Server) handleForget(w http.ResponseWriter, r *http.Request) {
	if s.rejectDegraded(w) {
		return
	}
	name := r.PathValue("name")
	if _, _, ok := s.engine.Dataset(name); !ok {
		writeError(w, notFound("unknown dataset %q", name))
		return
	}
	if s.store != nil {
		if err := s.store.AppendForget(name); err != nil {
			s.degrade(err)
			s.rejectDegraded(w)
			return
		}
	}
	s.engine.Forget(name)
	writeJSON(w, http.StatusOK, ForgetResponse{Name: name, Forgotten: true})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Eval(SiteHTTPExplain); err != nil {
		writeError(w, err)
		return
	}
	var req ExplainRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.engine.Explain(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", UptimeMS: time.Since(s.start).Milliseconds()}
	if s.degraded.Load() {
		s.mu.Lock()
		resp.Reason = s.degradedReason
		s.mu.Unlock()
		resp.Status = "degraded"
		resp.Degraded = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// Stats snapshots the full service state: the engine's cross-request reuse
// counters plus the serving layer's admission and latency counters.
func (s *Server) Stats() StatsResponse {
	datasets, plane, memo := s.engine.Stats()
	s.mu.Lock()
	endpoints := make(map[string]EndpointStats, len(s.endpoints))
	for name, ep := range s.endpoints {
		endpoints[name] = *ep
	}
	s.mu.Unlock()
	// Service-wide dedup: every scoring-work request (kNN builds asked of
	// the plane, score vectors asked of the memos) over every one actually
	// computed. Memo hits and plane hits both push the numerator alone.
	work := plane.Computations + (memo.Calls - memo.Hits)
	queries := plane.Queries + memo.Calls
	dedup := 1.0
	if work > 0 {
		dedup = float64(queries) / float64(work)
	}
	prune := plane.Prune
	resp := StatsResponse{
		Datasets:              datasets,
		UptimeMS:              time.Since(s.start).Milliseconds(),
		Degraded:              s.degraded.Load(),
		DedupFactor:           dedup,
		Plane:                 plane,
		PlaneDedupFactor:      plane.DedupFactor(),
		Prune:                 prune,
		PruneScanFraction:     prune.ScanFraction(),
		PruneSurvivorFraction: prune.SurvivorFraction(),
		ScoreMemo:             memo,
		ScoreMemoHits:         memo.Hits,
		Admission:             s.gate.Stats(),
		Endpoints:             endpoints,
	}
	if resp.Degraded {
		s.mu.Lock()
		resp.DegradedReason = s.degradedReason
		s.mu.Unlock()
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Durable = &st
	}
	return resp
}

// maxBodyBytes caps every request body. The largest payloads are dataset
// registrations, whose CSV rides JSON-escaped in the body: a 1000×100
// paper-scale dataset is ~2 MB, so 32 MiB leaves an order of magnitude of
// headroom while keeping one request from exhausting server memory.
const maxBodyBytes = 32 << 20

// bodyReadTimeout bounds reading one request body, so a stalled client
// cannot hold a connection and its goroutine forever; it leaves room for a
// maxBodyBytes registration over a slow link. Unlike a connection-wide
// http.Server.ReadTimeout, which is armed from the first header byte to
// the end of the request, the deadline is set only while decodeJSON reads
// and lifted before the handler does its work: explanation time stays
// bounded by timeout_ms alone.
const bodyReadTimeout = 2 * time.Minute

// decodeJSON strictly decodes a request body (unknown fields rejected, so
// a typo like "detecor" fails loudly instead of silently running defaults).
// A body past maxBodyBytes fails with 413, one not fully read within the
// server's body deadline with 408.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	// Writers without deadline support (httptest.ResponseRecorder) have
	// no connection to bound; their errors are ignored.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Drain whatever follows the value, so net/http has nothing left
		// to read from the client once the deadline is lifted.
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		// The deadline stays in force: net/http discards an unread body
		// before replying, and a stalled client must not block that.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &StatusError{Code: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		var netErr net.Error
		if errors.As(err, &netErr) && netErr.Timeout() {
			return &StatusError{Code: http.StatusRequestTimeout, Msg: "request body not received in time"}
		}
		return badRequest("invalid request body: %v", err)
	}
	_ = rc.SetReadDeadline(time.Time{})
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps an error to its HTTP status: StatusError carries its
// own code, context expiry maps to 504, everything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *StatusError
	switch {
	case errors.As(err, &se):
		code = se.Code
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf("%v", err)})
}
