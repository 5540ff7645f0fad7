package blockstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is a Store that keeps one file per unit under a directory,
// giving genuinely out-of-core Phase-2 runs: "unit-<mode>-<part>.tpun" is
// header | A | slab (codec.go), laid down by the unit's whole Put; a
// write-back overwrites the A region where it lies and nothing else.
//
// The directory is scratch: nothing is synced and an interrupted write
// leaves a torn file, so after a crash it may hold anything. Every run
// rebuilds it from the Phase-1 result and the checkpoint before reading it.
type FileStore struct {
	dir   string
	mu    sync.Mutex
	stats Stats
	// inPlace maps each unit to its *sync.RWMutex, held exclusively while a
	// Put writes into the unit's file and shared while a Get reads it:
	// files change where they lie, so this is what keeps a Get from seeing
	// half of a write-back. Per unit, so that the buffer manager's inline
	// write-backs never wait for a prefetch of another unit.
	inPlace sync.Map
}

// NewFileStore creates (if needed) dir and returns a store rooted there.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// unitLock returns unit ⟨mode, part⟩'s in-place lock.
func (s *FileStore) unitLock(mode, part int) *sync.RWMutex {
	l, ok := s.inPlace.Load(unitKey{mode, part})
	if !ok {
		l, _ = s.inPlace.LoadOrStore(unitKey{mode, part}, new(sync.RWMutex))
	}
	return l.(*sync.RWMutex)
}

func (s *FileStore) unitPath(mode, part int) string {
	return filepath.Join(s.dir, fmt.Sprintf("unit-%d-%d.tpun", mode, part))
}

// Put implements Store. Genuine filesystem errors are classified transient
// (wrapping ErrTransient alongside the cause, so errors.Is sees both): a
// retried Put writes every byte again, so repeating is safe and often
// heals NFS-style hiccups.
func (s *FileStore) Put(u *Unit) error {
	write := s.writeWhole
	if u.isAPart() {
		write = s.writeA
	}
	if err := write(u); err != nil {
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrShape) {
			return err
		}
		return fmt.Errorf("blockstore: put ⟨%d,%d⟩: %w: %w", u.Mode, u.Part, ErrTransient, err)
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += u.Bytes()
	s.mu.Unlock()
	return nil
}

// writeWhole creates or truncates the unit's file and encodes u into it;
// a unit whose shapes do not fit is refused before the file is touched.
func (s *FileStore) writeWhole(u *Unit) error {
	slab, err := PackSlab(u)
	if err != nil {
		return err
	}
	l := s.unitLock(u.Mode, u.Part)
	l.Lock()
	defer l.Unlock()
	f, err := os.Create(s.unitPath(u.Mode, u.Part))
	if err != nil {
		return err
	}
	err = EncodeUnit(f, &Unit{Mode: u.Mode, Part: u.Part, A: u.A, Slab: slab})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeA overwrites the A region of the unit's file with u.A, if the
// file's header says this is the unit and the shape it was seeded with.
func (s *FileStore) writeA(u *Unit) error {
	l := s.unitLock(u.Mode, u.Part)
	l.Lock()
	defer l.Unlock()
	path := s.unitPath(u.Mode, u.Part)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: A part of ⟨%d,%d⟩ before its whole unit", ErrNotFound, u.Mode, u.Part)
		}
		return err
	}
	defer f.Close()
	var raw [unitHeaderBytes]byte
	var hdr [5]int64
	if _, err = f.ReadAt(raw[:], 0); err == nil {
		hdr, err = parseUnitHeader(raw[:])
	} else if err != io.EOF { // EOF: the file ends inside its header
		return err
	}
	if err == nil && (hdr[0] != int64(u.Mode) || hdr[1] != int64(u.Part)) {
		err = fmt.Errorf("file holds unit ⟨%d,%d⟩", hdr[0], hdr[1])
	}
	if err != nil {
		return fmt.Errorf("%w: ⟨%d,%d⟩ (%s): %v", ErrCorrupt, u.Mode, u.Part, path, err)
	}
	if hdr[2] != int64(u.A.Rows) || hdr[3] != int64(u.A.Cols) {
		return fmt.Errorf("%w: %d×%d A part for ⟨%d,%d⟩, seeded %d×%d", ErrShape, u.A.Rows, u.A.Cols, u.Mode, u.Part, hdr[2], hdr[3])
	}
	if err := writeFloats(io.NewOffsetWriter(f, int64(unitHeaderBytes)), nil, u.A.Data); err != nil {
		return err
	}
	return f.Close()
}

// Get implements Store: one open, one size, one read. A file that exists
// but is not exactly this unit yields ErrCorrupt (see there) rather than a
// raw decode error or, worse, an allocation sized by garbage.
func (s *FileStore) Get(mode, part int) (*Unit, error) {
	path := s.unitPath(mode, part)
	l := s.unitLock(mode, part)
	l.RLock()
	defer l.RUnlock()
	f, err := os.Open(path)
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
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("blockstore: get ⟨%d,%d⟩ (stat): %w: %w", mode, part, ErrTransient, err)
	}
	u, err := DecodeUnitWithin(f, fi.Size())
	if err == nil && (u.Mode != mode || u.Part != part) {
		err = fmt.Errorf("file holds unit ⟨%d,%d⟩", u.Mode, u.Part)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: ⟨%d,%d⟩ (%s): %v", ErrCorrupt, mode, part, path, err)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += u.Bytes()
	s.mu.Unlock()
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
