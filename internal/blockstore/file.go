package blockstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"twopcp/internal/mat"
)

// FileStore is a Store that keeps one file per unit under a directory,
// giving genuinely out-of-core Phase-2 runs: "unit-<mode>-<part>.tpun" is
// header | A | slab (codec.go), laid down by the unit's whole Put; a
// write-back overwrites the A region where it lies and nothing else.
//
// Each unit's file is opened by the first Put or Get of the unit and stays
// open until Close, so a Get is a stat and two reads (header, then payload
// straight into the unit's allocation) and a write-back a header read and
// one write. The store owns its directory while open: it reaches each file
// through the descriptor it holds, so a file rewritten in place is seen but
// one removed or renamed over is not.
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
	// files maps each unit to its open *os.File.
	files sync.Map
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

// file returns unit ⟨mode, part⟩'s open file, opening it with flag
// (os.O_RDWR, perhaps with os.O_CREATE) on first use.
func (s *FileStore) file(mode, part, flag int) (*os.File, error) {
	key := unitKey{mode, part}
	if f, ok := s.files.Load(key); ok {
		return f.(*os.File), nil
	}
	f, err := os.OpenFile(s.unitPath(mode, part), flag, 0o666)
	if err != nil {
		return nil, err
	}
	// Two Gets hold the unit's lock shared, so both may have opened it.
	if prev, loaded := s.files.LoadOrStore(key, f); loaded {
		f.Close()
		return prev.(*os.File), nil
	}
	return f, nil
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

// writeWhole truncates (or creates) the unit's file and encodes u into it;
// a unit whose shapes do not fit is refused before the file is touched.
func (s *FileStore) writeWhole(u *Unit) error {
	slab, err := PackSlab(u)
	if err != nil {
		return err
	}
	l := s.unitLock(u.Mode, u.Part)
	l.Lock()
	defer l.Unlock()
	f, err := s.file(u.Mode, u.Part, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	return EncodeUnit(io.NewOffsetWriter(f, 0), &Unit{Mode: u.Mode, Part: u.Part, A: u.A, Slab: slab})
}

// writeA overwrites the A region of the unit's file with u.A, if the
// file's header says this is the unit and the shape it was seeded with.
func (s *FileStore) writeA(u *Unit) error {
	l := s.unitLock(u.Mode, u.Part)
	l.Lock()
	defer l.Unlock()
	f, err := s.file(u.Mode, u.Part, os.O_RDWR)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: A part of ⟨%d,%d⟩ before its whole unit", ErrNotFound, u.Mode, u.Part)
		}
		return err
	}
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
		return fmt.Errorf("%w: ⟨%d,%d⟩ (%s): %v", ErrCorrupt, u.Mode, u.Part, f.Name(), err)
	}
	if hdr[2] != int64(u.A.Rows) || hdr[3] != int64(u.A.Cols) {
		return fmt.Errorf("%w: %d×%d A part for ⟨%d,%d⟩, seeded %d×%d", ErrShape, u.A.Rows, u.A.Cols, u.Mode, u.Part, hdr[2], hdr[3])
	}
	return mat.WriteFloats(io.NewOffsetWriter(f, int64(unitHeaderBytes)), u.A.Data)
}

// Get implements Store: one size and two reads of the unit's open file. A
// file that exists but is not exactly this unit yields ErrCorrupt (see
// there) rather than a raw decode error or, worse, an allocation sized by
// garbage.
func (s *FileStore) Get(mode, part int) (*Unit, error) {
	l := s.unitLock(mode, part)
	l.RLock()
	defer l.RUnlock()
	f, err := s.file(mode, part, os.O_RDWR)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: ⟨%d,%d⟩", ErrNotFound, mode, part)
		}
		// Not a missing file, not damage — an open that failed for
		// environmental reasons (fd pressure, a flaky mount) may succeed
		// on retry.
		return nil, fmt.Errorf("blockstore: get ⟨%d,%d⟩ (open): %w: %w", mode, part, ErrTransient, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("blockstore: get ⟨%d,%d⟩ (stat): %w: %w", mode, part, ErrTransient, err)
	}
	u, err := DecodeUnitWithin(io.NewSectionReader(f, 0, fi.Size()), fi.Size())
	if err == nil && (u.Mode != mode || u.Part != part) {
		err = fmt.Errorf("file holds unit ⟨%d,%d⟩", u.Mode, u.Part)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: ⟨%d,%d⟩ (%s): %v", ErrCorrupt, mode, part, f.Name(), err)
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

// Close implements Store: it closes every unit's file; a second Close finds
// none. The files are left on disk; callers that want cleanup should remove
// the directory.
func (s *FileStore) Close() error {
	var err error
	s.files.Range(func(key, f any) bool {
		s.files.Delete(key)
		err = errors.Join(err, f.(*os.File).Close())
		return true
	})
	return err
}
