// Package server turns the batch explanation engine into a long-lived
// service. The Engine is the process core — a multi-tenant dataset
// registry, ONE shared neighbourhood plane, and per-dataset score memos
// that all outlive individual requests — and Server (server.go) is the
// HTTP/JSON skin over it. The experiments harness and the CLIs build on
// the same Engine, so a server response is byte-identical to the
// equivalent one-shot CLI invocation, and repeated requests against a
// registered dataset compound the within-grid kNN dedup of the plane into
// near-total warm-path dedup: the second identical request costs score-memo
// lookups instead of detector work.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Workers bounds every request's inner scoring loops (0 = GOMAXPROCS);
	// results are identical at any count. The serving layer also sizes its
	// default in-flight admission off this budget.
	Workers int
	// CacheBytes is the byte budget of each registered dataset's
	// per-detector score memo (0 → detector.DefaultCacheBytes).
	CacheBytes int64
	// PlaneBytes is the byte budget of the engine-wide shared
	// neighbourhood plane (0 → neighbors.DefaultPlaneBytes).
	PlaneBytes int64
}

// Engine is the long-lived explanation core: everything PRs 1–5 built to
// outlive a single run — the shared neighbourhood plane, byte-budgeted
// score memos, lazy views — owned by one object that requests borrow.
// Safe for concurrent use.
type Engine struct {
	workers    int
	cacheBytes int64
	plane      *neighbors.Plane

	mu      sync.Mutex
	tenants map[string]*tenant
}

// tenant is one registered dataset with its cross-request caches.
type tenant struct {
	ds   *dataset.Dataset
	hash string

	mu    sync.Mutex
	memos map[string]*detector.Cached // per (detector, seed) score memo
}

// NewEngine builds an engine with a private neighbourhood plane, so two
// engines never share a residency budget.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{
		workers:    parallel.Resolve(cfg.Workers),
		cacheBytes: cfg.CacheBytes,
		plane:      neighbors.NewPlane(cfg.PlaneBytes),
		tenants:    make(map[string]*tenant),
	}
}

// Workers returns the engine's resolved inner-loop worker budget.
func (e *Engine) Workers() int { return e.workers }

// Plane returns the engine-wide shared neighbourhood plane.
func (e *Engine) Plane() *neighbors.Plane { return e.plane }

// PlaneStats snapshots the plane's activity counters.
func (e *Engine) PlaneStats() neighbors.PlaneStats { return e.plane.Stats() }

// WirePlane wires the engine's plane into a detector that supports one
// (the kNN family exposes SetNeighbors); other detectors pass through
// untouched. The experiments session wires its detectors through it too.
func (e *Engine) WirePlane(d core.Detector) {
	if ns, ok := d.(interface{ SetNeighbors(*neighbors.Plane) }); ok {
		ns.SetNeighbors(e.plane)
	}
}

// NewScoreMemo wraps a detector in a score memo sized by the engine's
// cache budget — the one construction path for every memo the engine (or a
// session built on it) hands out.
func (e *Engine) NewScoreMemo(d core.Detector) *detector.Cached {
	return detector.NewCachedBudget(d, e.cacheBytes)
}

// RegisterCSV parses and registers a CSV payload under name. The registry
// key is (name, SHA-256 of the payload): re-registering an identical
// payload is idempotent (same hash, caches kept warm), while a different
// payload under an existing name replaces it — the old dataset's plane
// entries are forgotten and its score memos dropped, so a tenant can never
// be served explanations of data it no longer owns.
func (e *Engine) RegisterCSV(name string, csv []byte, header bool) (RegisterResponse, error) {
	pending, err := e.PrepareRegister(name, csv, header)
	if err != nil {
		return RegisterResponse{}, err
	}
	return pending.Commit(), nil
}

// PendingRegistration is a validated registration that has not yet been
// applied to the registry. The split exists for the durable serving
// layer: validate (parse the CSV, compute the hash), persist the record
// to the write-ahead log, and only then Commit — so a registration the
// engine serves is always one the log already holds, and a crash between
// the two leaves the durable (post-write) state that recovery replays.
type PendingRegistration struct {
	e         *Engine
	name      string
	hash      string
	ds        *dataset.Dataset // nil when Identical
	identical bool
	resp      RegisterResponse
}

// Identical reports that an identical payload (same name, same hash) was
// already registered when the registration was prepared: Commit is a
// cache-preserving no-op, and a durable layer can skip the log append
// (the record is necessarily already durable).
func (p *PendingRegistration) Identical() bool { return p.identical }

// Hash returns the payload's SHA-256 — the idempotency key clients pin.
func (p *PendingRegistration) Hash() string { return p.hash }

// PrepareRegister validates a registration without applying it: the CSV
// is fully parsed (NaN/Inf and ragged rows rejected) and the payload
// hashed. The returned pending registration is applied with Commit.
func (e *Engine) PrepareRegister(name string, csv []byte, header bool) (*PendingRegistration, error) {
	if name == "" {
		return nil, badRequest("dataset name must be non-empty")
	}
	if len(csv) == 0 {
		return nil, badRequest("dataset %q: empty csv payload", name)
	}
	sum := sha256.Sum256(csv)
	hash := hex.EncodeToString(sum[:])

	e.mu.Lock()
	if t, ok := e.tenants[name]; ok && t.hash == hash {
		ds := t.ds
		e.mu.Unlock()
		return &PendingRegistration{e: e, name: name, hash: hash, identical: true,
			resp: RegisterResponse{Name: name, Hash: hash, N: ds.N(), D: ds.D()}}, nil
	}
	e.mu.Unlock()

	// Parse outside the lock: payloads can be large and the reader does a
	// full validation pass (NaN/Inf and ragged rows rejected).
	ds, err := dataset.ReadCSV(name, bytes.NewReader(csv), header)
	if err != nil {
		return nil, badRequest("dataset %q: %v", name, err)
	}
	return &PendingRegistration{e: e, name: name, hash: hash, ds: ds}, nil
}

// Commit applies a prepared registration to the registry and returns the
// registration response. Identical registrations keep the incumbent
// tenant's warm caches; replacements release the old dataset's plane
// entries and drop its memos.
func (p *PendingRegistration) Commit() RegisterResponse {
	if p.identical {
		return p.resp
	}
	e := p.e
	e.mu.Lock()
	old, replaced := e.tenants[p.name]
	if replaced && old.hash == p.hash {
		// A concurrent identical registration won the race; keep its caches.
		ds := old.ds
		e.mu.Unlock()
		return RegisterResponse{Name: p.name, Hash: p.hash, N: ds.N(), D: ds.D()}
	}
	e.tenants[p.name] = &tenant{ds: p.ds, hash: p.hash, memos: make(map[string]*detector.Cached)}
	e.mu.Unlock()
	if replaced {
		e.plane.Forget(old.ds.SourceKey())
	}
	return RegisterResponse{Name: p.name, Hash: p.hash, N: p.ds.N(), D: p.ds.D(), Replaced: replaced}
}

// Forget deregisters a dataset and releases its plane entries. Unknown
// names are a no-op (deregistration is idempotent).
func (e *Engine) Forget(name string) {
	e.mu.Lock()
	t, ok := e.tenants[name]
	delete(e.tenants, name)
	e.mu.Unlock()
	if ok {
		e.plane.Forget(t.ds.SourceKey())
	}
}

// Dataset returns a registered dataset and its payload hash.
func (e *Engine) Dataset(name string) (*dataset.Dataset, string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tenants[name]
	if !ok {
		return nil, "", false
	}
	return t.ds, t.hash, true
}

// Datasets returns the number of registered datasets.
func (e *Engine) Datasets() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tenants)
}

// memoFor returns (creating on first use) the tenant's score memo for one
// (detector, seed) pair. The memo — and through it the detector instance —
// persists across requests, which is the second half of warm-path reuse:
// the plane dedups kNN structures, the memo dedups whole score vectors.
// Seed participates in the key because the Isolation Forest's scores
// depend on it; for the deterministic detectors distinct seeds simply
// share the plane underneath.
func (t *tenant) memoFor(e *Engine, detName string, seed int64) (*detector.Cached, error) {
	key := fmt.Sprintf("%s@%d", detName, seed)
	t.mu.Lock()
	defer t.mu.Unlock()
	if memo, ok := t.memos[key]; ok {
		return memo, nil
	}
	det, err := NewDetectorByName(detName, seed, e.workers)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	e.WirePlane(det)
	memo := e.NewScoreMemo(det)
	t.memos[key] = memo
	return memo, nil
}

// setDefaults resolves the CLI-default knobs of an explain request in
// place, so a zero-valued field and an explicit CLI default are the same
// request (and hit the same memo).
func (req *ExplainRequest) setDefaults() {
	if req.Algo == "" {
		req.Algo = "beam"
	}
	if req.Detector == "" {
		req.Detector = "lof"
	}
	if req.Dim == 0 {
		req.Dim = 2
	}
	if req.Top == 0 {
		req.Top = 5
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
}

// maxTimeoutMS is the largest TimeoutMS whose millisecond Duration fits
// in an int64 (about 292 years).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// Explain answers one explanation request against a registered dataset,
// with the same construction path as the anexplain CLI: factory-built
// detector wrapped in a score memo, factory-built explainer, per-point
// ExplainPoint or one joint Summarize. A positive TimeoutMS derives a
// per-request deadline that the context plumbing carries into every
// scoring loop. The request's zero-valued knobs are resolved to the CLI
// defaults (the caller's struct is not mutated).
func (e *Engine) Explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, error) {
	req.setDefaults()
	if req.TimeoutMS > maxTimeoutMS {
		// Past this, the millisecond product overflows time.Duration into a
		// negative deadline that would expire at once.
		return nil, badRequest("timeout_ms %d exceeds the maximum %d", req.TimeoutMS, maxTimeoutMS)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	e.mu.Lock()
	t, ok := e.tenants[req.Dataset]
	e.mu.Unlock()
	if !ok {
		return nil, notFound("unknown dataset %q (register it via POST /v1/datasets)", req.Dataset)
	}
	if req.Hash != "" && req.Hash != t.hash {
		return nil, conflict("dataset %q: payload hash %s registered, request pinned %s", req.Dataset, t.hash, req.Hash)
	}
	ds := t.ds
	if len(req.Points) == 0 {
		return nil, badRequest("no points to explain")
	}
	if len(req.Points) > ds.N() {
		// Past n, a request can only repeat points — each repeat is paid
		// in full explainer work, so the dataset's own size is the cap.
		return nil, badRequest("%d points requested from a dataset of %d rows", len(req.Points), ds.N())
	}
	for _, p := range req.Points {
		if p < 0 || p >= ds.N() {
			return nil, badRequest("point %d out of range [0, %d)", p, ds.N())
		}
	}
	if req.Dim < 1 || req.Dim > ds.D() {
		return nil, badRequest("dimensionality %d out of range [1, %d]", req.Dim, ds.D())
	}
	memo, err := t.memoFor(e, req.Detector, req.Seed)
	if err != nil {
		return nil, err
	}

	resp := &ExplainResponse{
		Dataset:      req.Dataset,
		Hash:         t.hash,
		Algo:         req.Algo,
		Detector:     req.Detector,
		DetectorName: memo.Name(),
		Dim:          req.Dim,
	}
	switch {
	case IsPointAlgo(req.Algo):
		explainer, err := NewPointExplainerByName(req.Algo, memo, req.Seed)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		resp.AlgoName = explainer.Name()
		for _, p := range req.Points {
			list, err := explainer.ExplainPoint(ctx, ds, p, req.Dim)
			if err != nil {
				return nil, err
			}
			resp.Points = append(resp.Points, PointExplanationJSON{
				Point:     p,
				Subspaces: toJSONSubspaces(ds, core.TopK(list, req.Top)),
			})
		}
	case IsSummaryAlgo(req.Algo):
		summarizer, err := NewSummarizerByName(req.Algo, memo, req.Seed)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		resp.AlgoName = summarizer.Name()
		list, err := summarizer.Summarize(ctx, ds, req.Points, req.Dim)
		if err != nil {
			return nil, err
		}
		resp.Summary = toJSONSubspaces(ds, core.TopK(list, req.Top))
	default:
		return nil, badRequest("unknown algorithm %q (want %s)", req.Algo, AlgoNames)
	}
	return resp, nil
}

// toJSONSubspaces converts a ranked ScoredSubspace list to the wire shape,
// resolving feature names against the dataset.
func toJSONSubspaces(ds *dataset.Dataset, list []core.ScoredSubspace) []ScoredSubspaceJSON {
	out := make([]ScoredSubspaceJSON, len(list))
	for i, s := range list {
		features := make([]int, len(s.Subspace))
		names := make([]string, len(s.Subspace))
		for j, f := range s.Subspace {
			features[j] = f
			names[j] = ds.FeatureName(f)
		}
		out[i] = ScoredSubspaceJSON{Features: features, Names: names, Score: s.Score}
	}
	return out
}

// Stats returns the engine's cross-request reuse counters: plane activity
// plus the aggregated score-memo counters of every tenant.
func (e *Engine) Stats() (datasets int, plane neighbors.PlaneStats, memo detector.CacheStats) {
	e.mu.Lock()
	tenants := make([]*tenant, 0, len(e.tenants))
	for _, t := range e.tenants {
		tenants = append(tenants, t)
	}
	e.mu.Unlock()
	for _, t := range tenants {
		t.mu.Lock()
		for _, m := range t.memos {
			cs := m.CacheStats()
			memo.Calls += cs.Calls
			memo.Hits += cs.Hits
			memo.Evictions += cs.Evictions
			memo.Entries += cs.Entries
			memo.ResidentBytes += cs.ResidentBytes
			memo.MaxBytes += cs.MaxBytes
		}
		t.mu.Unlock()
	}
	return len(tenants), e.plane.Stats(), memo
}
