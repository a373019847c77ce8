// Package durable is anexd's crash-safe dataset store: a write-ahead log
// of registration/replace/forget records with checksummed framing and
// torn-tail truncation (the PR-2 journal contract in binary form),
// periodic snapshot + atomic-rename compaction, and fsync discipline
// strict enough that an acknowledged append survives kill -9.
//
// Invariants:
//
//   - An append is acknowledged only after its frame is fully written AND
//     fsynced. A crash mid-append leaves at most one torn (never-acked)
//     frame at the WAL tail, which recovery truncates away.
//   - Compaction writes the full live state to snapshot.tmp, fsyncs it,
//     atomically renames it over the snapshot, fsyncs the directory, and
//     only then resets the WAL. A crash between rename and reset leaves
//     snapshot + full WAL; replaying a history over the snapshot of that
//     same history is convergent (registry state is last-op-per-name), so
//     recovery is identical either way.
//   - Any I/O failure fail-stops the store: the first error is remembered
//     and every later append is refused with it, because a store that may
//     have torn bytes at its tail must not append past them. The serving
//     layer turns this into read-only degraded mode.
//
// Recovery (Open) loads the snapshot, replays the WAL's valid prefix over
// it, truncates the torn tail, and returns the live registrations sorted
// by name — the exact inputs a server needs to rebuild its engine
// registry bit-identically.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"anex/internal/failpoint"
)

const (
	walName  = "wal.log"
	snapName = "snapshot"
	snapTmp  = "snapshot.tmp"
	lockName = "LOCK"

	// DefaultCompactEvery is the WAL append count that triggers snapshot
	// compaction when Options.CompactEvery is zero.
	DefaultCompactEvery = 256
)

// The store's failpoint sites, in write-path order, evaluated against
// Options.Faults. The crash-schedule test walks an injected fault through
// every one of them and asserts recovery lands on a consistent state.
const (
	// SiteOpen fails recovery itself (before any state is read).
	SiteOpen = "durable.open"
	// SiteWALAppend fails an append before any byte reaches the WAL.
	SiteWALAppend = "durable.wal.append"
	// SiteWALTorn simulates a crash mid-append: half the frame is written
	// and synced, then the append fails — the torn-tail case.
	SiteWALTorn = "durable.wal.torn"
	// SiteWALSync fails the append's fsync after the full frame was
	// written (the record may or may not survive a real crash).
	SiteWALSync = "durable.wal.sync"
	// SiteSnapWrite fails compaction before the temp snapshot is written.
	SiteSnapWrite = "durable.snapshot.write"
	// SiteSnapSync fails the temp snapshot's fsync.
	SiteSnapSync = "durable.snapshot.sync"
	// SiteSnapRename fails the atomic rename publishing the snapshot.
	SiteSnapRename = "durable.snapshot.rename"
	// SiteWALReset fails the WAL truncation after a published snapshot.
	SiteWALReset = "durable.wal.reset"
)

// Sites returns the store's write-path failpoint sites (every site except
// SiteOpen, which faults recovery rather than a write).
func Sites() []string {
	return []string{SiteWALAppend, SiteWALTorn, SiteWALSync,
		SiteSnapWrite, SiteSnapSync, SiteSnapRename, SiteWALReset}
}

// Options tunes a Store.
type Options struct {
	// CompactEvery triggers snapshot compaction after that many WAL
	// appends (0 → DefaultCompactEvery).
	CompactEvery int
	// Faults arms the store's failpoint sites for crash drills and fault
	// tests; nil (the default) arms none.
	Faults *failpoint.Set
}

// Stats snapshots a store's activity.
type Stats struct {
	// LiveDatasets is the number of currently registered datasets.
	LiveDatasets int `json:"live_datasets"`
	// WALRecords and WALBytes describe the WAL since the last compaction.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Appends counts acknowledged appends; Compactions completed
	// snapshot compactions.
	Appends     int64 `json:"appends"`
	Compactions int64 `json:"compactions"`
	// RecoveredSnapshot and RecoveredWAL count the records loaded at Open
	// from the snapshot and replayed from the WAL; TornBytesDropped is
	// the torn-tail length recovery truncated away.
	RecoveredSnapshot int   `json:"recovered_snapshot"`
	RecoveredWAL      int   `json:"recovered_wal"`
	TornBytesDropped  int64 `json:"torn_bytes_dropped"`
	// Failed carries the fail-stop cause once the store has failed.
	Failed string `json:"failed,omitempty"`
}

// Store is the WAL-backed dataset store. Safe for concurrent use.
type Store struct {
	dir          string
	compactEvery int
	faults       *failpoint.Set

	mu         sync.Mutex
	lock       *os.File
	wal        *os.File
	live       map[string]Record // live registrations by name
	walRecords int
	walBytes   int64
	appends    int64
	compacts   int64
	recovered  Stats // recovery-time counters, frozen at Open
	failed     error
	closed     bool
}

// Open recovers (creating if absent) the store in dir with default
// options and returns it together with the recovered live registrations,
// sorted by name.
func Open(dir string) (*Store, []Record, error) {
	return OpenWith(dir, Options{})
}

// OpenWith is Open with explicit options.
func OpenWith(dir string, opts Options) (*Store, []Record, error) {
	if err := opts.Faults.Eval(SiteOpen); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:          dir,
		compactEvery: opts.CompactEvery,
		faults:       opts.Faults,
		lock:         lock,
		live:         make(map[string]Record),
	}
	if s.compactEvery <= 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if err := s.recover(); err != nil {
		lock.Close()
		return nil, nil, err
	}
	return s, s.liveSorted(), nil
}

// acquireLock takes an exclusive flock on the store's lock file, so two
// processes can never append to the same WAL. The kernel releases the
// lock when the holder dies (kill -9 included), so no stale-lock cleanup
// is ever needed.
func acquireLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s already locked by a live process: %w", path, err)
	}
	return f, nil
}

// recover loads snapshot + WAL into s.live and positions the WAL for
// appending, truncating any torn tail.
func (s *Store) recover() error {
	// A leftover snapshot.tmp is a compaction the writer did not live to
	// publish; the rename never happened, so it is dead weight.
	_ = os.Remove(filepath.Join(s.dir, snapTmp))

	snapPath := filepath.Join(s.dir, snapName)
	if raw, err := os.ReadFile(snapPath); err == nil {
		recs, goodEnd := DecodeRecords(raw)
		if goodEnd != len(raw) {
			// The snapshot is published atomically (write-all, fsync,
			// rename), so a torn one is real corruption, not a crash
			// artifact — refuse to guess.
			return fmt.Errorf("durable: snapshot %s corrupt at byte %d of %d", snapPath, goodEnd, len(raw))
		}
		for _, rec := range recs {
			s.apply(rec)
		}
		s.recovered.RecoveredSnapshot = len(recs)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("durable: %w", err)
	}

	walPath := filepath.Join(s.dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: %w", err)
	}
	recs, goodEnd := DecodeRecords(raw)
	for _, rec := range recs {
		s.apply(rec)
	}
	s.recovered.RecoveredWAL = len(recs)
	s.recovered.TornBytesDropped = int64(len(raw) - goodEnd)

	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := wal.Truncate(int64(goodEnd)); err != nil {
		wal.Close()
		return fmt.Errorf("durable: truncate torn tail: %w", err)
	}
	if _, err := wal.Seek(int64(goodEnd), 0); err != nil {
		wal.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if s.recovered.TornBytesDropped > 0 {
		if err := wal.Sync(); err != nil {
			wal.Close()
			return fmt.Errorf("durable: %w", err)
		}
	}
	if err := syncDir(s.dir); err != nil {
		wal.Close()
		return err
	}
	s.wal = wal
	s.walRecords = len(recs)
	s.walBytes = int64(goodEnd)
	return nil
}

// apply folds one record into the live registry.
func (s *Store) apply(rec Record) {
	switch rec.Op {
	case OpRegister:
		s.live[rec.Name] = rec
	case OpForget:
		delete(s.live, rec.Name)
	}
}

func (s *Store) liveSorted() []Record {
	out := make([]Record, 0, len(s.live))
	for _, rec := range s.live {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AppendRegister durably records a dataset registration (or replacement).
// It returns only after the record is fsynced; on any failure the store
// fail-stops and the registration must be considered in doubt — after a
// restart it is either fully present or fully absent, never torn.
func (s *Store) AppendRegister(name string, header bool, csv []byte) error {
	return s.append(Record{Op: OpRegister, Name: name, Header: header, CSV: csv})
}

// AppendForget durably records a deregistration tombstone.
func (s *Store) AppendForget(name string) error {
	return s.append(Record{Op: OpForget, Name: name})
}

func (s *Store) append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	if s.failed != nil {
		return fmt.Errorf("durable: store failed, read-only: %w", s.failed)
	}
	frame, err := AppendRecord(nil, rec)
	if err != nil {
		return err // unencodable record: caller bug, store still healthy
	}
	if err := s.faults.Eval(SiteWALAppend); err != nil {
		return s.fail(err)
	}
	if err := s.faults.Eval(SiteWALTorn); err != nil {
		// Simulate a crash mid-append: half the frame reaches the disk.
		if n, werr := s.wal.Write(frame[:len(frame)/2]); werr == nil {
			s.walBytes += int64(n)
			s.wal.Sync()
		}
		return s.fail(err)
	}
	n, err := s.wal.Write(frame)
	s.walBytes += int64(n)
	if err != nil {
		return s.fail(fmt.Errorf("wal write: %w", err))
	}
	if err := s.faults.Eval(SiteWALSync); err != nil {
		return s.fail(err)
	}
	if err := s.wal.Sync(); err != nil {
		return s.fail(fmt.Errorf("wal sync: %w", err))
	}
	// The record is durable: acknowledged from here on.
	s.apply(rec)
	s.walRecords++
	s.appends++
	if s.walRecords >= s.compactEvery {
		if err := s.compactLocked(); err != nil {
			// The append itself is durable, but an I/O error during
			// compaction still fail-stops the store (its cause is a disk
			// that just misbehaved). The caller sees an error for a record
			// that survives restarts — the allowed "post-write" outcome.
			return s.fail(err)
		}
	}
	return nil
}

// fail records the first I/O error and fail-stops the store.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// compactLocked writes the live state to snapshot.tmp, fsyncs, renames it
// over the snapshot, fsyncs the directory, then resets the WAL.
func (s *Store) compactLocked() error {
	if err := s.faults.Eval(SiteSnapWrite); err != nil {
		return err
	}
	var buf []byte
	for _, rec := range s.liveSorted() {
		var err error
		if buf, err = AppendRecord(buf, rec); err != nil {
			return fmt.Errorf("snapshot encode: %w", err)
		}
	}
	tmpPath := filepath.Join(s.dir, snapTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot write: %w", err)
	}
	if err := s.faults.Eval(SiteSnapSync); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot close: %w", err)
	}
	if err := s.faults.Eval(SiteSnapRename); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("snapshot rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot now owns the full state; the WAL can restart empty. A
	// crash before this truncation replays the old WAL over the snapshot,
	// which is convergent (last op per name wins either way).
	if err := s.faults.Eval(SiteWALReset); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("wal reset: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("wal reset: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("wal reset sync: %w", err)
	}
	s.walRecords, s.walBytes = 0, 0
	s.compacts++
	return nil
}

// Live returns the current live registrations, sorted by name.
func (s *Store) Live() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveSorted()
}

// Failed returns the fail-stop cause, or nil while the store is healthy.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recovered
	st.LiveDatasets = len(s.live)
	st.WALRecords = s.walRecords
	st.WALBytes = s.walBytes
	st.Appends = s.appends
	st.Compactions = s.compacts
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	return st
}

// Close releases the WAL and the directory lock. The store must not be
// used afterwards; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if err := s.wal.Close(); err != nil {
		first = err
	}
	if err := s.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// abandon drops the store's file descriptors without any teardown logic —
// the in-process stand-in for kill -9 that the crash-schedule test uses
// before reopening the directory.
func (s *Store) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.wal.Close()
	s.lock.Close()
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", dir, err)
	}
	return nil
}
