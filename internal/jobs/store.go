package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"twopcp/internal/runstate"
)

// Store is the durable side of the job queue: one directory per job under
// root, holding the job record, the run's checkpoint directory, the
// uploaded input (when the submission carried one) and the exported
// factor CSVs.
//
// Layout:
//
//	root/
//	  j000001/
//	    job.json            — the Job record (atomic install + fsync)
//	    ckpt/               — twopcp run checkpoints (runstate format)
//	    store/              — out-of-core data units (Spec.OutOfCore)
//	    input.tensor        — uploaded tensor (upload submissions only)
//	    factors-mode<i>.csv — exported factors (StateDone only)
//
// Records are installed with runstate.WriteFileAtomic — write to a temp
// file, fsync, rename, fsync the directory — so a crash leaves either the
// old record or the new one, never a torn file. The checkpoint directory
// gives each job the library's full crash-recovery story: a daemon
// restart resumes the job from its last checkpoint bit-exactly.
type Store struct {
	root string

	mu   sync.Mutex
	next int // next job number to allocate
}

// recordName is the per-job record filename.
const recordName = "job.json"

// inputName is the per-job filename for uploaded tensors.
const inputName = "input.tensor"

// OpenStore opens (creating if needed) a job store rooted at dir and
// scans existing job directories so newly allocated IDs never collide
// with persisted ones.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: dir, next: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, ok := parseID(e.Name()); ok && n >= s.next {
			s.next = n + 1
		}
	}
	return s, nil
}

// parseID extracts the job number from an ID like "j000042".
func parseID(id string) (int, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Dir returns a job's directory.
func (s *Store) Dir(id string) string { return filepath.Join(s.root, id) }

// CheckpointDir returns a job's checkpoint directory.
func (s *Store) CheckpointDir(id string) string { return filepath.Join(s.Dir(id), "ckpt") }

// StoreDir returns a job's out-of-core data-unit directory.
func (s *Store) StoreDir(id string) string { return filepath.Join(s.Dir(id), "store") }

// InputPath returns where a job's uploaded tensor lives.
func (s *Store) InputPath(id string) string { return filepath.Join(s.Dir(id), inputName) }

// FactorPath returns where a job's mode-m factor CSV lives.
func (s *Store) FactorPath(id string, mode int) string {
	return filepath.Join(s.Dir(id), fmt.Sprintf("factors-mode%d.csv", mode))
}

// SnapshotPath returns where a done job's factor snapshot (the mmap-able
// query-serving file) lives.
func (s *Store) SnapshotPath(id string) string {
	return filepath.Join(s.Dir(id), "factors.snap")
}

// HasCheckpoint reports whether the job's checkpoint directory holds a
// resumable run manifest — the resume-or-fresh predicate the manager
// evaluates before every run.
func (s *Store) HasCheckpoint(id string) bool {
	return runstate.HasManifest(s.CheckpointDir(id))
}

// Create allocates a job directory for spec and persists the initial
// queued record. When input is non-nil its bytes are copied into the job
// directory first and Spec.Input is pointed at the copy, so the record
// never references an input that is not durably in place.
func (s *Store) Create(spec Spec, input io.Reader, now time.Time) (*Job, error) {
	s.mu.Lock()
	id := fmt.Sprintf("j%06d", s.next)
	s.next++
	s.mu.Unlock()

	if err := os.MkdirAll(s.CheckpointDir(id), 0o755); err != nil {
		return nil, err
	}
	if input != nil {
		path := s.InputPath(id)
		if err := writeInput(path, input); err != nil {
			// A cut-off or refused upload leaves nothing behind: the
			// directory holds no record yet, only the partial input. Its
			// removal is best effort; Load skips a directory without a
			// record.
			_ = os.RemoveAll(s.Dir(id))
			return nil, fmt.Errorf("jobs: store upload for %s: %w", id, err)
		}
		spec.Input = path
	}
	job := &Job{ID: id, Spec: spec, State: StateQueued, Created: now}
	if err := s.Put(job); err != nil {
		return nil, err
	}
	return job, nil
}

// writeInput copies input into a new file at path and syncs it.
func writeInput(path string, input io.Reader) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, input); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Put durably installs the job record (atomic rename + fsync, the same
// guarantees as run manifests).
func (s *Store) Put(job *Job) error {
	data, err := json.MarshalIndent(job, "", "  ")
	if err != nil {
		return err
	}
	return runstate.WriteFileAtomic(s.Dir(job.ID), recordName, append(data, '\n'))
}

// ErrCorruptRecord marks a job record that exists but is not a job of its
// directory: bytes that do not decode, another job's ID or an unknown
// state.
var ErrCorruptRecord = errors.New("jobs: corrupt record")

// Get loads one job record from disk. A record that is there but damaged
// is an error wrapping ErrCorruptRecord.
func (s *Store) Get(id string) (*Job, error) {
	data, err := os.ReadFile(filepath.Join(s.Dir(id), recordName))
	if err != nil {
		return nil, err
	}
	var job Job
	switch err := json.Unmarshal(data, &job); {
	case err != nil:
		return nil, fmt.Errorf("%w for %s: %w", ErrCorruptRecord, id, err)
	case job.ID != id:
		return nil, fmt.Errorf("%w for %s: it names job %q", ErrCorruptRecord, id, job.ID)
	case !job.State.known():
		return nil, fmt.Errorf("%w for %s: unknown state %q", ErrCorruptRecord, id, job.State)
	}
	return &job, nil
}

// Load reads every job record under the root, sorted by ID. Directories
// without a record are skipped (a crash between MkdirAll and the first Put
// leaves one; it holds no work worth recovering), and so, with a log line,
// are those whose record cannot be read or decoded: one damaged job must
// not keep the daemon from serving the rest. Its file is left in place, and
// OpenStore still counts its ID as taken.
func (s *Store) Load() ([]*Job, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var jobsList []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := parseID(e.Name()); !ok {
			continue
		}
		job, err := s.Get(e.Name())
		if err != nil {
			if !os.IsNotExist(err) {
				log.Printf("jobs: skipping %s: %v", s.Dir(e.Name()), err)
			}
			continue
		}
		jobsList = append(jobsList, job)
	}
	sort.Slice(jobsList, func(i, j int) bool { return jobsList[i].ID < jobsList[j].ID })
	return jobsList, nil
}
