// Package blockstore implements the out-of-core storage substrate of 2PCP,
// standing in for the chunk-based array store (SciDB/TensorDB) of the
// paper's weak-configuration experiments. It persists the Phase-2
// mode-partition data units ⟨i,ki⟩ = {A(i)_(ki); U(i)_[*,..,ki,..,*]} and
// Phase-1 tensor chunks, and counts every read and write so experiments can
// report exact I/O — the paper's primary evaluation metric.
//
// Two backends are provided: MemStore, an in-memory store with disk
// semantics (deep copies on Put/Get) for fast, precisely-counted
// simulation, and FileStore, which writes real files through
// encoding/binary for true out-of-core runs.
//
// A store is scratch space for one Phase-2 run, not a durable artefact:
// the engine rewrites every unit when it starts and the checkpoint carries
// every A(i)_(ki) itself, so nothing here is ever flushed to stable
// storage and nothing may be assumed to survive a crash.
package blockstore

import (
	"errors"
	"fmt"
	"sync"

	"twopcp/internal/mat"
)

// Unit is the payload of one mode-partition data unit (paper Definition 4).
//
// Phase 2 updates A in place and never touches U, so a unit has two parts
// with different lifetimes: U is immutable after the unit's first Put, and
// A is what every later write-back replaces. A Unit with a nil U is an A
// part — see Store.Put.
type Unit struct {
	Mode int // mode i
	Part int // partition ki along mode i
	// A is the sub-factor A(i)_(ki), (I_i/K_i)×F.
	A *mat.Matrix
	// U maps the linear block id of every block l in the mode-i slab
	// [*,..,ki,..,*] to its Phase-1 sub-factor U(i)_l.
	U map[int]*mat.Matrix
}

// Bytes returns the payload size in bytes (8 bytes per float64).
func (u *Unit) Bytes() int64 {
	n := int64(len(u.A.Data))
	for _, m := range u.U {
		n += int64(len(m.Data))
	}
	return n * 8
}

// clone deep-copies the unit so store and caller never alias. A nil U (an
// A part) stays nil.
func (u *Unit) clone() *Unit {
	c := &Unit{Mode: u.Mode, Part: u.Part, A: u.A.Clone()}
	if u.U != nil {
		c.U = make(map[int]*mat.Matrix, len(u.U))
		for id, m := range u.U {
			c.U[id] = m.Clone()
		}
	}
	return c
}

// Stats counts store traffic. Reads/Writes count operations; the byte
// counters accumulate payload volume. Reads, Writes and the byte counters
// count successful operations only, so a retried transient fault leaves
// them identical to a fault-free run — the foundation of the
// "deterministic under retry" contract. Retries and BreakerTrips are
// recovery-path counters maintained by ResilientStore; they are monotonic
// (ResetStats does not zero them) so a Result's retry total reconciles
// with the store.retry events in the trace even though the I/O counters
// are reset between run phases.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Retries      int64
	BreakerTrips int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.Retries += other.Retries
	s.BreakerTrips += other.BreakerTrips
}

// ErrNotFound is returned by Get, and by an A-part Put, for units that
// were never Put whole.
var ErrNotFound = errors.New("blockstore: unit not found")

// ErrCorrupt is returned by FileStore.Get for unit files that exist but
// cannot be decoded — zero-length or truncated files, bad magic or absurd
// declared shapes — and for an A part whose U part is gone. It is distinct
// from ErrNotFound so callers can tell "never written" from "written but
// damaged": the first is often a caller bug, the second is data loss that
// must not be papered over.
var ErrCorrupt = errors.New("blockstore: corrupt unit")

// Store persists data units and counts the I/O they generate.
//
// # Concurrency contract
//
// Every Store implementation in this package (MemStore, FileStore, and
// the LatencyStore/FaultyStore wrappers) is safe for concurrent use by
// multiple goroutines; the asynchronous Phase-2 pipeline issues parallel
// Gets (prefetch workers) and Puts (background write-back) against a
// single store. The guarantees callers may rely on:
//
//   - U is immutable after the unit's first Put. That first, whole-unit
//     Put (non-nil U) is a set-up operation: it lays down U, then A, and
//     is not atomic as a pair against a concurrent Get of the same unit —
//     Phase 2 seeds every unit before its buffer manager exists.
//   - An A-part Put (nil U) replaces A and leaves the stored U in place.
//     It is atomic: a concurrent Get of the same unit observes either the
//     previous complete A or the new complete A, each with the seeded U,
//     never a torn write (MemStore swaps a copy under its mutex;
//     FileStore writes a temp file and renames it into the A part's
//     place, and never rewrites the U part). The guarantee is between
//     users of one store value, not between processes sharing a
//     directory. On a unit that was never Put whole it fails with
//     ErrNotFound — no Get ever returns a unit missing its U.
//   - Get returns a private copy: mutating the result never affects the
//     store or other readers, so two goroutines may fetch the same unit
//     and diverge safely.
//   - Concurrent Puts of the same unit serialize in some order; the store
//     ends up holding one complete version. Callers that need a *specific*
//     order (e.g. the buffer manager's write-backs) must sequence their
//     own Puts — the buffer manager does so by never having more than one
//     write-back of a unit in flight.
//   - Stats/ResetStats are linearizable counter snapshots. Counts of
//     operations that are in flight during a snapshot may or may not be
//     included; totals are exact once the caller has quiesced its I/O.
//   - Close must only be called after all outstanding operations have
//     drained; it is not a cancellation mechanism.
type Store interface {
	// Put stores the unit — whole when u.U is non-nil, only its A part
	// when u.U is nil — replacing what was stored; see the contract
	// above. Stats count the bytes of what was passed: u.Bytes().
	Put(u *Unit) error
	// Get fetches the whole unit for (mode, part), A and U; the result is
	// owned by the caller (mutations do not write through).
	Get(mode, part int) (*Unit, error)
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// ForEachConcurrent runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the first error observed. With workers <= 1 the
// calls run inline, in order, stopping at the first error — callers that
// need deterministic store traffic (the synchronous Phase-2 paths) pass 1.
// With workers > 1 all n calls are attempted (no early cancellation) and
// the function returns once every call has finished, so the store is
// quiesced on return even on error.
func ForEachConcurrent(n, workers int, fn func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errc := make(chan error, n)
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			errc <- fn(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

type unitKey struct{ mode, part int }

// MemStore is an in-memory Store with disk semantics: what a Put passes is
// deep-copied, and so is what a Get returns, so callers observe exactly the
// behaviour of a file-backed store while experiments measure pure I/O
// counts. The copies are made outside the lock on Put and the map swap is
// atomic, so concurrent readers never see a partially-copied unit. Stored
// versions of a unit share one U map: it is never written after seeding.
type MemStore struct {
	mu    sync.Mutex
	units map[unitKey]*Unit
	stats Stats
}

// NewMemStore returns an empty in-memory unit store.
func NewMemStore() *MemStore {
	return &MemStore{units: make(map[unitKey]*Unit)}
}

// Put implements Store.
func (s *MemStore) Put(u *Unit) error {
	c := u.clone()
	key := unitKey{u.Mode, u.Part}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.U == nil {
		seeded, ok := s.units[key]
		if !ok {
			return fmt.Errorf("%w: A part of ⟨%d,%d⟩ before its whole unit", ErrNotFound, u.Mode, u.Part)
		}
		c.U = seeded.U
	}
	s.units[key] = c
	s.stats.Writes++
	s.stats.BytesWritten += u.Bytes()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(mode, part int) (*Unit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.units[unitKey{mode, part}]
	if !ok {
		return nil, fmt.Errorf("%w: ⟨%d,%d⟩", ErrNotFound, mode, part)
	}
	s.stats.Reads++
	s.stats.BytesRead += u.Bytes()
	return u.clone(), nil
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *MemStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.units = nil
	return nil
}
