// Package memo is the one cache mechanism behind the repository's result
// caches: the detectors' score memo (detector.Cached) and the shared
// neighbourhood plane (neighbors.Plane). Both re-serve the same subspace
// views again and again — Beam grows a subspace one feature at a time,
// RefOut refines within its pools, the Figure-9/10 grids pair three kNN
// detectors over identical views — and both need exactly the same policy:
//
//   - Concurrent misses on one key are deduplicated singleflight-style: one
//     leader computes, waiters share its value (and count as hits).
//   - A waiter whose leader failed because the LEADER's context was
//     cancelled retries, electing a new leader; a waiter whose own context
//     dies returns at once with that error.
//   - A leader whose computation panics releases its waiters with an error
//     while the panic continues up the leader's own stack, where the
//     pipeline's cell isolation contains it.
//   - Resident values live in a least-recently-used list under a hard byte
//     budget: a value larger than the whole budget is handed to its caller
//     and waiters but never stays resident.
//   - Forget drops every entry under a key prefix (a dataset's owner
//     declaring its entries dead).
package memo

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// entryOverhead approximates the fixed bookkeeping cost of one resident
// entry (map cell, LRU element, entry struct, slice and key headers).
const entryOverhead = 96

// Charge is the budget charge of one entry: its payload bytes plus its key
// length plus the fixed per-entry overhead.
func Charge(key string, payload int64) int64 {
	return payload + int64(len(key)) + entryOverhead
}

// Stats is a point-in-time snapshot of a cache's activity.
type Stats struct {
	// Calls counts Get calls; Hits of those were answered by a resident
	// entry or by waiting on another caller's computation.
	Calls, Hits int
	// Computations counts leader computations that succeeded.
	Computations int
	// Stale counts resident entries that a Get found but could not use
	// (its usable predicate rejected them) and therefore dropped.
	Stale int
	// Evictions counts entries dropped to honour the byte budget.
	Evictions int
	// Forgets counts entries dropped by Forget.
	Forgets int
	// Entries is the number of resident entries; Bytes their budget
	// charge, which never exceeds MaxBytes.
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// Cache is a byte-budgeted, singleflight, string-keyed memo of V values.
// It is safe for concurrent use. Values are shared with every caller and
// must be treated as immutable. The usable predicates callers pass run
// under the cache's lock, so they must be cheap and must not call back
// into the cache.
type Cache[V any] struct {
	size     func(V) int64
	maxBytes int64

	mu       sync.Mutex
	entries  map[string]*list.Element // of *entry[V], front = hottest
	lru      list.List
	bytes    int64
	inflight map[string]*call[V]
	stats    Stats
}

type entry[V any] struct {
	key    string
	val    V
	charge int64
}

// call is one in-flight computation that concurrent Gets of its key wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty cache whose resident entries are bounded by
// maxBytes; size reports a value's payload bytes (see Charge).
func New[V any](maxBytes int64, size func(V) int64) *Cache[V] {
	return &Cache[V]{
		size:     size,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*call[V]),
	}
}

// Get returns the value cached under key, running compute as the key's
// singleflight leader on a miss. usable decides whether a resident value —
// or the value a waiter received from its leader — answers this call; a
// rejected resident value is dropped (counted Stale) and recomputed, and a
// rejected leader value sends the waiter round again. A nil usable accepts
// every value. Errors are never cached.
func (c *Cache[V]) Get(ctx context.Context, key string, usable func(V) bool, compute func(context.Context) (V, error)) (V, error) {
	var zero V
	c.mu.Lock()
	c.stats.Calls++
	for {
		if el, ok := c.entries[key]; ok {
			en := el.Value.(*entry[V])
			if usable == nil || usable(en.val) {
				c.stats.Hits++
				c.lru.MoveToFront(el)
				c.mu.Unlock()
				return en.val, nil
			}
			c.stats.Stale++
			c.removeLocked(el)
		}
		cl, ok := c.inflight[key]
		if !ok {
			cl = &call[V]{done: make(chan struct{})}
			c.inflight[key] = cl
			c.mu.Unlock()
			return c.lead(ctx, key, usable, compute, cl)
		}
		c.mu.Unlock()
		select {
		case <-cl.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		switch {
		case cl.err == nil && (usable == nil || usable(cl.val)):
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			return cl.val, nil
		case cl.err != nil && !errors.Is(cl.err, context.Canceled) && !errors.Is(cl.err, context.DeadlineExceeded):
			return zero, cl.err
		case ctx.Err() != nil:
			return zero, ctx.Err()
		}
		// The leader was cancelled by its own context, or computed a value
		// this call cannot use: go round, finding a resident entry or
		// electing a new leader.
		c.mu.Lock()
	}
}

// lead runs compute as key's leader and publishes the outcome to waiters.
func (c *Cache[V]) lead(ctx context.Context, key string, usable func(V) bool, compute func(context.Context) (V, error), cl *call[V]) (V, error) {
	completed := false
	defer func() {
		if !completed {
			// compute panicked. Waiters get an error — re-panicking in THEIR
			// goroutines would crash call sites that never touched the faulty
			// computation — and the panic continues up this stack.
			cl.err = fmt.Errorf("memo: concurrent computation for %q panicked in its leader", key)
		}
		var charge int64
		if cl.err == nil {
			charge = Charge(key, c.size(cl.val))
		}
		c.mu.Lock()
		if cl.err == nil {
			c.stats.Computations++
			c.putLocked(key, cl.val, charge, usable)
		}
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute(ctx)
	completed = true
	return cl.val, cl.err
}

// Put installs a ready-made value under key unless a resident value
// already satisfies usable (nil: any resident value wins).
func (c *Cache[V]) Put(key string, v V, usable func(V) bool) {
	charge := Charge(key, c.size(v))
	c.mu.Lock()
	c.putLocked(key, v, charge, usable)
	c.mu.Unlock()
}

// Forget drops every resident entry whose key starts with prefix.
// Computations in flight are untouched: they publish after Forget returns.
func (c *Cache[V]) Forget(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.removeLocked(el)
			c.stats.Forgets++
		}
	}
}

// Stats returns the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}

// putLocked makes v resident under key, keeping a resident value that
// satisfies usable instead, then evicts from the cold end until the budget
// holds — the new entry included, if it alone exceeds the budget. Caller
// holds mu.
func (c *Cache[V]) putLocked(key string, v V, charge int64, usable func(V) bool) {
	if el, ok := c.entries[key]; ok {
		if usable == nil || usable(el.Value.(*entry[V]).val) {
			c.lru.MoveToFront(el)
			return
		}
		c.removeLocked(el)
	}
	en := &entry[V]{key: key, val: v, charge: charge}
	c.bytes += en.charge
	c.entries[key] = c.lru.PushFront(en)
	for c.bytes > c.maxBytes {
		c.removeLocked(c.lru.Back())
		c.stats.Evictions++
	}
}

// removeLocked drops one resident entry. Caller holds mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	en := c.lru.Remove(el).(*entry[V])
	delete(c.entries, en.key)
	c.bytes -= en.charge
}
