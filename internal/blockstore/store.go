// Package blockstore implements the out-of-core storage substrate of 2PCP,
// standing in for the chunk-based array store (SciDB/TensorDB) of the
// paper's weak-configuration experiments. It persists the Phase-2
// mode-partition data units ⟨i,ki⟩ = {A(i)_(ki); U(i)_[*,..,ki,..,*]} and
// counts every read and write so experiments can report exact I/O — the
// paper's primary evaluation metric. (Phase-1 input blocks are the tiles
// of a .tptl file, internal/tfile.)
//
// Two backends are provided: MemStore, an in-memory store with disk
// semantics (deep copies on Put/Get) for fast, precisely-counted
// simulation, and FileStore, which writes real files for true out-of-core
// runs.
//
// A store is scratch space for one Phase-2 run, not a durable artefact:
// the engine rewrites every unit when it starts and the checkpoint carries
// every A(i)_(ki) itself, so nothing here is ever flushed to stable
// storage and nothing may be assumed to survive a crash.
package blockstore

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"twopcp/internal/mat"
)

// Unit is the payload of one mode-partition data unit (paper Definition 4).
//
// Phase 2 updates A in place and never touches U, so a unit has two parts
// with different lifetimes: U is immutable after the unit's first Put, and
// A is what every later write-back replaces. A Unit with neither U nor
// Slab is an A part — see Store.Put.
type Unit struct {
	Mode int // mode i
	Part int // partition ki along mode i
	// A is the sub-factor A(i)_(ki), (I_i/K_i)×F.
	A *mat.Matrix
	// U is the per-block form a whole Put may be handed: the linear block
	// id of every block l in the mode-i slab [*,..,ki,..,*] mapped to its
	// Phase-1 sub-factor U(i)_l, each shaped like A. A Get never sets it.
	U map[int]*mat.Matrix
	// Slab is the same U(i)_l packed — one row-major rows×(L·F) matrix,
	// the L blocks side by side in ascending block id (grid.Pattern.Slab
	// order) — and wins over U when both are set. It is the layout of the
	// file, of the buffer and of the Phase-2 kernels' operand; a Get
	// returns A and Slab as two views of one allocation.
	Slab *mat.Matrix
	buf  []float64 // that allocation, kept for Recycle
}

// Bytes returns the payload size in bytes (8 bytes per float64); the two
// forms of U count the same.
func (u *Unit) Bytes() int64 {
	n := int64(len(u.A.Data))
	if u.Slab != nil {
		n += int64(len(u.Slab.Data))
	} else {
		for _, m := range u.U {
			n += int64(len(m.Data))
		}
	}
	return n * 8
}

// isAPart reports whether u carries A alone: a write-back.
func (u *Unit) isAPart() bool { return u.U == nil && u.Slab == nil }

// ErrShape is returned by a Put whose matrices do not fit together: an A
// without columns, a U block shaped unlike A, a Slab that is not
// rows×(L·F), or an A part shaped unlike the seeded A — after which a Get
// would return an A that no longer matches its U. Permanent: a caller bug.
var ErrShape = errors.New("blockstore: unit shape mismatch")

// PackSlab returns u's U in the packed form: u.Slab itself when set (after
// a shape check), otherwise a fresh matrix holding the blocks of u.U side
// by side in ascending block id. It is the only conversion between the two
// forms; block ids are not kept — the packed order is the pattern's.
func PackSlab(u *Unit) (*mat.Matrix, error) {
	rows, f := u.A.Rows, u.A.Cols
	misfit := func(what string, m *mat.Matrix) error {
		return fmt.Errorf("%w: ⟨%d,%d⟩ has a %d×%d A and a %d×%d %s", ErrShape, u.Mode, u.Part, rows, f, m.Rows, m.Cols, what)
	}
	if f == 0 {
		return nil, misfit("A, which has no columns", u.A)
	}
	if s := u.Slab; s != nil {
		if s.Rows != rows || s.Cols%f != 0 {
			return nil, misfit("slab", s)
		}
		return s, nil
	}
	w := len(u.U) * f
	slab := mat.New(rows, w)
	for l, id := range slices.Sorted(maps.Keys(u.U)) {
		m := u.U[id]
		if m.Rows != rows || m.Cols != f {
			return nil, misfit(fmt.Sprintf("U for block %d", id), m)
		}
		for i := 0; i < rows; i++ {
			copy(slab.Data[i*w+l*f:], m.Row(i))
		}
	}
	return slab, nil
}

// unitBufs holds the allocations of recycled units. A Get allocates its
// unit's size in bytes; at a swap per update that rate, not the live data,
// is what sets the heap's size, so the buffer manager hands back what it
// evicts.
var unitBufs sync.Pool

// newUnit returns a unit whose A (rows×f) and Slab (rows×slabCols) are two
// views of one allocation, A first, and that allocation, which the caller
// must fill: it may be a recycled one.
func newUnit(mode, part, rows, f, slabCols int) (*Unit, []float64) {
	n, na := rows*(f+slabCols), rows*f
	data, _ := unitBufs.Get().([]float64)
	if cap(data) < n {
		data = make([]float64, n)
	}
	data = data[:n]
	return &Unit{
		Mode: mode, Part: part,
		A:    mat.FromSlice(rows, f, data[:na:na]),
		Slab: mat.FromSlice(rows, slabCols, data[na:]),
		buf:  data,
	}, data
}

// Recycle gives the allocation behind a unit that a Get returned to a later
// Get. The caller must hold the last reference to the unit, to the A it was
// fetched with and to its Slab; the unit has neither afterwards. On any
// other unit it does nothing.
func (u *Unit) Recycle() {
	if u.buf != nil {
		unitBufs.Put(u.buf)
		u.buf, u.A, u.Slab = nil, nil, nil
	}
}

// Stats counts store traffic. Reads/Writes count operations; the byte
// counters accumulate payload volume. Reads, Writes and the byte counters
// count successful operations only, so a retried transient fault leaves
// them identical to a fault-free run — the foundation of the
// "deterministic under retry" contract. Retries is the recovery-path
// counter maintained by ResilientStore; it is monotonic (ResetStats does
// not zero it) so a Result's retry total reconciles with the store.retry
// events in the trace even though the I/O counters are reset between run
// phases.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Retries      int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.Retries += other.Retries
}

// ErrNotFound is returned by Get, and by an A-part Put, for units that
// were never Put whole.
var ErrNotFound = errors.New("blockstore: unit not found")

// ErrCorrupt is returned by FileStore for unit files that exist but are
// not exactly one unit — zero-length or truncated, bad magic, a header
// that does not account for the file's size to the byte or names another
// unit. It is distinct from ErrNotFound so callers can tell "never
// written" from "written but damaged": the first is often a caller bug,
// the second is data loss that must not be papered over.
var ErrCorrupt = errors.New("blockstore: corrupt unit")

// Store persists data units and counts the I/O they generate.
//
// # Concurrency contract
//
// Every Store implementation in this package (MemStore, FileStore, and
// the LatencyStore/FaultyStore wrappers) is safe for concurrent use by
// multiple goroutines; Phase 2's prefetch goroutines issue Gets against a
// store while the engine's goroutine Gets and Puts (write-backs run inline
// on it). The guarantees callers may rely on:
//
//   - U is immutable after the unit's first Put. That first, whole-unit
//     Put (U or Slab set) is a set-up operation: it lays down A and the
//     packed slab and fixes the unit's shape — Phase 2 seeds every unit
//     before its buffer manager exists.
//   - An A-part Put (neither U nor Slab) replaces A and leaves the slab in
//     place. When it succeeds it is atomic: a concurrent Get of the same
//     unit observes the previous complete A or the new one, each with the
//     seeded slab, never a torn write (MemStore swaps a copy under its
//     mutex; FileStore overwrites the file's A region under the unit's
//     lock, held exclusively, which a Get's read holds shared) — between
//     users of one store value, not between processes sharing a directory.
//     On a unit never Put whole it fails with ErrNotFound, on an A shaped
//     unlike the seeded one with ErrShape: no Get ever returns a unit
//     whose A and slab do not fit.
//   - When it fails, the stored A may be torn — part old, part new —
//     until a retry rewrites it whole. That is safe: the store is scratch
//     and nothing reads a unit in that state. The buffer manager writes a
//     victim back, retries included, before the Acquire that evicted it
//     returns, so nothing fetches the unit meanwhile; and a write-back
//     failure ends the run, which resumes from a checkpoint that carries
//     its factors itself and reseeds the store.
//   - Get returns a private copy: mutating the result never affects the
//     store or other readers, so two goroutines may fetch the same unit
//     and diverge safely.
//   - Concurrent Puts of the same unit serialize in some order; the store
//     ends up holding one complete version. Callers that need a *specific*
//     order (e.g. the buffer manager's write-backs) must sequence their
//     own Puts — the buffer manager does so by issuing every write-back
//     from one goroutine.
//   - Stats/ResetStats are linearizable counter snapshots. Counts of
//     operations that are in flight during a snapshot may or may not be
//     included; totals are exact once the caller has quiesced its I/O.
//   - Close must only be called after all outstanding operations have
//     drained; it is not a cancellation mechanism.
type Store interface {
	// Put stores the unit — whole when u.U or u.Slab is set, only its A
	// part when neither is — replacing what was stored; see the contract
	// above. Stats count the bytes of what was passed: u.Bytes().
	Put(u *Unit) error
	// Get fetches the whole unit for (mode, part), A and the packed Slab;
	// the result is owned by the caller (mutations do not write through).
	Get(mode, part int) (*Unit, error)
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

type unitKey struct{ mode, part int }

// MemStore is an in-memory Store with disk semantics: what a Put passes is
// copied, and so is what a Get returns, so callers observe exactly the
// behaviour of a file-backed store while experiments measure pure I/O
// counts. The copies are made outside the lock on Put and the map swap is
// atomic, so concurrent readers never see a partially-copied unit. Stored
// versions of a unit share one packed slab: it is never written after
// seeding.
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
	c := &Unit{Mode: u.Mode, Part: u.Part, A: u.A.Clone()}
	if !u.isAPart() {
		slab, err := PackSlab(u)
		if err != nil {
			return err
		}
		if slab == u.Slab {
			slab = slab.Clone()
		}
		c.Slab = slab
	}
	key := unitKey{u.Mode, u.Part}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Slab == nil {
		seeded, ok := s.units[key]
		if !ok {
			return fmt.Errorf("%w: A part of ⟨%d,%d⟩ before its whole unit", ErrNotFound, u.Mode, u.Part)
		}
		if c.A.Rows != seeded.A.Rows || c.A.Cols != seeded.A.Cols {
			return fmt.Errorf("%w: %d×%d A part for ⟨%d,%d⟩, seeded %d×%d", ErrShape, c.A.Rows, c.A.Cols, u.Mode, u.Part, seeded.A.Rows, seeded.A.Cols)
		}
		c.Slab = seeded.Slab
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
	c, data := newUnit(mode, part, u.A.Rows, u.A.Cols, u.Slab.Cols)
	copy(data[copy(data, u.A.Data):], u.Slab.Data)
	return c, nil
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
