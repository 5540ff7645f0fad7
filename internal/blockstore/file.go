package blockstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// FileStore is a Store that keeps two files per unit under a directory,
// giving genuinely out-of-core Phase-2 runs: "unit-<mode>-<part>.u.tpun",
// the slab's U matrices, written once by the unit's whole Put, and
// "unit-<mode>-<part>.a.tpun", the A partition, which is all a write-back
// replaces. Each file is an ordinary TPUN encoding (codec.go) of a unit
// whose other half is empty.
//
// The directory is scratch: files are made atomic by rename and are never
// synced, so after a crash it may hold anything. Every run rebuilds it
// from the Phase-1 result and the checkpoint before reading it.
type FileStore struct {
	dir   string
	mu    sync.Mutex
	stats Stats
	// replacing is held exclusively while a Put swaps a part file for its
	// new version and shared while a Get opens one; see writePart.
	replacing sync.RWMutex
}

// NewFileStore creates (if needed) dir and returns a store rooted there.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// partPath names one of a unit's two files; half is "a" or "u".
func (s *FileStore) partPath(mode, part int, half string) string {
	return filepath.Join(s.dir, fmt.Sprintf("unit-%d-%d.%s.tpun", mode, part, half))
}

// Put implements Store. Each file is written to a fresh temp file and
// renamed into place (see writePart), so concurrent Puts of the same part
// serialize into one complete version and concurrent Gets never observe a
// torn file. A whole unit lands U part first: the A part is what makes a
// unit exist for Get.
func (s *FileStore) Put(u *Unit) error {
	if u.U != nil {
		if err := s.writePart(s.partPath(u.Mode, u.Part, "u"), &Unit{Mode: u.Mode, Part: u.Part, A: &mat.Matrix{}, U: u.U}); err != nil {
			return err
		}
	} else if _, err := os.Stat(s.partPath(u.Mode, u.Part, "u")); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: A part of ⟨%d,%d⟩ before its whole unit", ErrNotFound, u.Mode, u.Part)
		}
		return fmt.Errorf("blockstore: put ⟨%d,%d⟩ (stat): %w: %w", u.Mode, u.Part, ErrTransient, err)
	}
	if err := s.writePart(s.partPath(u.Mode, u.Part, "a"), &Unit{Mode: u.Mode, Part: u.Part, A: u.A}); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += u.Bytes()
	s.mu.Unlock()
	return nil
}

// writePart replaces the file at path with the encoding of u. Genuine
// filesystem errors are classified transient (wrapping ErrTransient
// alongside the cause, so errors.Is sees both): a retried Put starts over
// from a fresh temp file, so repeating is safe and often heals NFS-style
// hiccups.
//
// The old version is unlinked before the rename. ext4 flushes a file's
// data to disk when it is renamed over an existing one (auto_da_alloc) —
// crash safety for exactly this idiom, which scratch has no use for, and
// at 100–180 µs the larger part of what a Put of an A part cost. The
// instant in which the name has no file is hidden from Gets by replacing:
// readPart opens under it, and a file once open outlives its name.
func (s *FileStore) writePart(path string, u *Unit) error {
	transient := func(stage string, err error) error {
		return fmt.Errorf("blockstore: put ⟨%d,%d⟩ (%s): %w: %w", u.Mode, u.Part, stage, ErrTransient, err)
	}
	f, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return transient("create", err)
	}
	err = EncodeUnit(f, u)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.replacing.Lock()
		os.Remove(path) // absent on a unit's first Put; the rename is what must succeed
		err = os.Rename(f.Name(), path)
		s.replacing.Unlock()
	}
	if err != nil {
		os.Remove(f.Name())
		return transient("write", err)
	}
	return nil
}

// Get implements Store: the A part, then the U part it belongs to. A part
// file that exists but cannot be decoded — zero-length, truncated
// mid-matrix, wrong magic or a header declaring an absurd shape — yields
// ErrCorrupt rather than a raw decode error (or, worse, an attempted
// allocation sized by garbage), and so does an A part whose U part is
// missing: Puts are atomic and lay U down first, so either state means
// on-disk damage, not an in-progress write.
func (s *FileStore) Get(mode, part int) (*Unit, error) {
	u, err := s.readPart(mode, part, "a")
	if err != nil {
		return nil, err
	}
	slab, err := s.readPart(mode, part, "u")
	if errors.Is(err, ErrNotFound) {
		err = fmt.Errorf("%w: ⟨%d,%d⟩ has an A part but no U part", ErrCorrupt, mode, part)
	}
	if err != nil {
		return nil, err
	}
	u.U = slab.U
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += u.Bytes()
	s.mu.Unlock()
	return u, nil
}

// readPart decodes one of a unit's two files; a missing file is
// ErrNotFound, an undecodable one ErrCorrupt.
func (s *FileStore) readPart(mode, part int, half string) (*Unit, error) {
	path := s.partPath(mode, part, half)
	s.replacing.RLock()
	f, err := os.Open(path)
	s.replacing.RUnlock()
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: ⟨%d,%d⟩", ErrNotFound, mode, part)
		}
		// Not a missing file, not damage — an open that failed for
		// environmental reasons (fd pressure, a flaky mount) may succeed
		// on retry.
		return nil, fmt.Errorf("blockstore: get ⟨%d,%d⟩ (open): %w: %w", mode, part, ErrTransient, err)
	}
	defer f.Close()
	// Bound decode allocations by what the file could actually contain, so
	// a garbage header cannot size a multi-gigabyte allocation.
	var limit int64
	if fi, err := f.Stat(); err == nil {
		limit = fi.Size()
	}
	u, err := DecodeUnitWithin(f, limit)
	if err != nil {
		return nil, fmt.Errorf("%w: ⟨%d,%d⟩ (%s): %v", ErrCorrupt, mode, part, path, err)
	}
	return u, nil
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *FileStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Close implements Store. The files are left on disk; callers that want
// cleanup should remove the directory.
func (s *FileStore) Close() error { return nil }

// ChunkStore persists dense tensor chunks (Phase-1 input blocks), one file
// per block position, standing in for TensorDB's chunked array storage.
type ChunkStore struct {
	dir   string
	mu    sync.Mutex
	stats Stats
}

// NewChunkStore creates (if needed) dir and returns a chunk store.
func NewChunkStore(dir string) (*ChunkStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return &ChunkStore{dir: dir}, nil
}

func (s *ChunkStore) chunkPath(vec []int) string {
	name := "chunk"
	for _, v := range vec {
		name += fmt.Sprintf("-%d", v)
	}
	return filepath.Join(s.dir, name+".tpdn")
}

// PutChunk writes the dense block stored at grid position vec. Write
// failures are transient (SaveDense writes a fresh file; repeating is
// safe).
func (s *ChunkStore) PutChunk(vec []int, t *tensor.Dense) error {
	if err := tensor.SaveDense(s.chunkPath(vec), t); err != nil {
		return fmt.Errorf("blockstore: put chunk %v: %w: %w", vec, ErrTransient, err)
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += int64(len(t.Data)) * 8
	s.mu.Unlock()
	return nil
}

// GetChunk reads the dense block stored at grid position vec. A missing
// chunk is permanent (it was never written — a caller bug); other read
// failures are transient.
func (s *ChunkStore) GetChunk(vec []int) (*tensor.Dense, error) {
	t, err := tensor.LoadDense(s.chunkPath(vec))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("blockstore: chunk %v: %w", vec, err)
		}
		return nil, fmt.Errorf("blockstore: get chunk %v: %w: %w", vec, ErrTransient, err)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += int64(len(t.Data)) * 8
	s.mu.Unlock()
	return t, nil
}

// Stats returns a snapshot of the chunk I/O counters.
func (s *ChunkStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
