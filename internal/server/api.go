package server

import (
	"fmt"

	"anex/internal/detector"
	"anex/internal/durable"
	"anex/internal/neighbors"
)

// The HTTP/JSON wire types of the anexd explanation service. Field names
// are part of the public API; additions must stay backward compatible
// (new fields, never repurposed ones).

// RegisterRequest is the body of POST /v1/datasets: a CSV payload to
// register under a name in the engine's multi-tenant registry.
type RegisterRequest struct {
	// Name addresses the dataset in later ExplainRequests.
	Name string `json:"name"`
	// CSV is the dataset itself. Header controls whether its first record
	// names the features.
	CSV    string `json:"csv"`
	Header bool   `json:"header"`
}

// RegisterResponse describes the registered dataset.
type RegisterResponse struct {
	Name string `json:"name"`
	// Hash is the SHA-256 of the CSV payload — the registry key component
	// that makes re-registration idempotent and replacement observable.
	Hash string `json:"hash"`
	N    int    `json:"n"`
	D    int    `json:"d"`
	// Replaced reports that a different payload was previously registered
	// under this name and has been evicted (its caches released).
	Replaced bool `json:"replaced"`
}

// ExplainRequest is the body of POST /v1/explain: explain the given points
// of a registered dataset. Zero-valued knobs select the anexplain CLI
// defaults, so a minimal request and a default CLI invocation are the same
// computation.
type ExplainRequest struct {
	// Dataset names a registered dataset; Hash optionally pins the exact
	// payload version (mismatch fails rather than silently explaining
	// different data).
	Dataset string `json:"dataset"`
	Hash    string `json:"hash,omitempty"`
	// Points are the dataset row indices to explain.
	Points []int `json:"points"`
	// Algo is beam, refout (per point) or lookout, hics (joint summary);
	// empty means beam.
	Algo string `json:"algo,omitempty"`
	// Detector is lof, abod or iforest; empty means lof.
	Detector string `json:"detector,omitempty"`
	// Dim is the explanation dimensionality (0 → 2).
	Dim int `json:"dim,omitempty"`
	// Top bounds the returned subspaces per list (0 → 5, the CLI default;
	// negative → unbounded).
	Top int `json:"top,omitempty"`
	// Seed drives the stochastic algorithms (0 → 1, the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS, when positive, bounds the request's wall-clock time: the
	// deadline propagates through the existing context plumbing into every
	// scoring loop, and an overrun aborts with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ScoredSubspaceJSON is one ranked subspace of an explanation.
type ScoredSubspaceJSON struct {
	// Features are the subspace's feature indices (canonical ascending
	// order); Names the matching feature names.
	Features []int    `json:"features"`
	Names    []string `json:"names"`
	Score    float64  `json:"score"`
}

// PointExplanationJSON is one explained point with its ranked subspaces.
type PointExplanationJSON struct {
	Point     int                  `json:"point"`
	Subspaces []ScoredSubspaceJSON `json:"subspaces"`
}

// ExplainResponse is the result of one explanation request. Point
// algorithms fill Points (one entry per requested point, request order);
// summary algorithms fill Summary (one shared ranked list).
type ExplainResponse struct {
	Dataset  string `json:"dataset"`
	Hash     string `json:"hash"`
	Algo     string `json:"algo"`
	Detector string `json:"detector"`
	// AlgoName and DetectorName are the algorithms' display names (e.g.
	// "Beam_FX", "LOF") — the paper's nomenclature, as printed by the CLI.
	AlgoName     string                 `json:"algo_name"`
	DetectorName string                 `json:"detector_name"`
	Dim          int                    `json:"dim"`
	Points       []PointExplanationJSON `json:"points,omitempty"`
	Summary      []ScoredSubspaceJSON   `json:"summary,omitempty"`
}

// ForgetResponse is the body of DELETE /v1/datasets/{name}.
type ForgetResponse struct {
	Name string `json:"name"`
	// Forgotten is true when the named dataset existed and was removed
	// (and, on a durable server, its tombstone logged).
	Forgotten bool `json:"forgotten"`
}

// HealthResponse is the body of GET /healthz. The endpoint answers 200 in
// degraded mode too — a degraded anexd still serves explanations for
// registered tenants, it only refuses new writes — so liveness probes
// must not kill it; orchestration that cares about write availability
// reads the Degraded flag.
type HealthResponse struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Degraded is true once a durable write has failed and the server is
	// read-only; Reason carries the first failure.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	// UptimeMS is the server's age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
}

// StatsResponse is the body of GET /v1/stats: the engine's cross-request
// reuse counters plus the serving layer's admission and latency counters.
type StatsResponse struct {
	// Datasets is the number of registered datasets.
	Datasets int `json:"datasets"`
	// UptimeMS is the server's age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// Degraded is true once a durable write has failed: the server is
	// read-only (new registrations get 503 + Retry-After) until restart.
	// DegradedReason carries the first failure's message.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Durable reports the write-ahead-logged dataset store's counters;
	// absent on servers running without -data-dir.
	Durable *durable.Stats `json:"durable,omitempty"`
	// DedupFactor is the headline cross-request reuse metric: scoring-work
	// requests across both cache layers (plane kNN queries + score-memo
	// calls) per actual computation (plane builds + memo misses). A cold
	// request scores 1; warm repeats of it raise the factor because their
	// work is answered from the memo and the plane without recomputation.
	DedupFactor float64 `json:"dedup_factor"`
	// Plane is the engine-wide shared neighbourhood plane's activity;
	// PlaneDedupFactor its own queries-per-computation ratio (> 1 only when
	// kNN structures are re-queried past the memo, e.g. across seeds or
	// detectors).
	Plane            neighbors.PlaneStats `json:"plane"`
	PlaneDedupFactor float64              `json:"plane_dedup_factor"`
	// Prune is the landmark-pruned candidate tier's ledger over this
	// engine's plane builds (Plane.Prune, surfaced at the top level);
	// PruneScanFraction is the share of candidate rows the tier let
	// through to the exact distance kernel — 1.0 when the tier never
	// engaged, ≤ 0.6 on the Figure-9 reference workload per check.sh.
	// PruneSurvivorFraction is the quantized prefilter's equivalent: the
	// share of bound-tested candidates its 8-bit code bound could NOT
	// reject — 1.0 when the prefilter never engaged, ≤ 0.15 on the
	// Figure-9 reference workload per check.sh.
	Prune                 neighbors.PruneStats `json:"prune"`
	PruneScanFraction     float64              `json:"prune_scan_fraction"`
	PruneSurvivorFraction float64              `json:"prune_survivor_fraction"`
	// ScoreMemo aggregates the per-dataset cached detectors' score memos;
	// ScoreMemoHits is its hit total (a warm request's subspace scores come
	// from here without any detector work).
	ScoreMemo     detector.CacheStats `json:"score_memo"`
	ScoreMemoHits int                 `json:"score_memo_hits"`
	// Admission reports the serving layer's backpressure state.
	Admission AdmissionStats `json:"admission"`
	// Endpoints maps "METHOD /path" to its latency counters.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// AdmissionStats reports the in-flight semaphore and rate limiter.
type AdmissionStats struct {
	Inflight    int     `json:"inflight"`
	MaxInflight int     `json:"max_inflight"`
	RatePerSec  float64 `json:"rate_per_sec"`
	// Rejected429 counts requests turned away with 429 (semaphore full or
	// token bucket empty) instead of queueing unboundedly.
	Rejected429 int64 `json:"rejected_429"`
}

// EndpointStats are one endpoint's cumulative latency counters.
type EndpointStats struct {
	Count   int64 `json:"count"`
	Errors  int64 `json:"errors"`
	TotalMS int64 `json:"total_ms"`
	MaxMS   int64 `json:"max_ms"`
}

// StatusError carries the HTTP status a failed request should map to.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// badRequest builds a 400 StatusError.
func badRequest(format string, args ...any) *StatusError {
	return &StatusError{Code: 400, Msg: fmt.Sprintf(format, args...)}
}

// notFound builds a 404 StatusError.
func notFound(format string, args ...any) *StatusError {
	return &StatusError{Code: 404, Msg: fmt.Sprintf(format, args...)}
}

// conflict builds a 409 StatusError.
func conflict(format string, args ...any) *StatusError {
	return &StatusError{Code: 409, Msg: fmt.Sprintf(format, args...)}
}

// unavailable builds a 503 StatusError.
func unavailable(format string, args ...any) *StatusError {
	return &StatusError{Code: 503, Msg: fmt.Sprintf(format, args...)}
}
