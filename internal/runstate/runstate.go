// Package runstate makes long 2PCP decompositions durable: it maintains a
// fsync'd, versioned run manifest plus per-stage checkpoint files under a
// single checkpoint directory, so a run killed at an arbitrary point can be
// restarted and skip every completed block decomposition (Phase 1) and
// every refinement step up to the last checkpoint (Phase 2) — producing
// bit-for-bit identical factors, FitTrace and swap counts to an
// uninterrupted run (the package-level determinism contract of twopcp makes
// replay from a checkpoint exact).
//
// # Layout
//
// A checkpoint directory contains:
//
//	manifest.json    versioned JSON envelope (CRC32-protected body): the
//	                 run's option fingerprint, the partition pattern and
//	                 the current stage. Rewritten on stage transitions
//	                 only.
//	p1-blocks.log    append-only log, one record per completed Phase-1
//	                 block: the block's λ-folded sub-factors and ALS fit.
//	                 A valid record is the block's completion record.
//	phase2-0.ckpt    the two Phase-2 checkpoint slots. Each holds one
//	phase2-1.ckpt    sequence-numbered checkpoint — schedule position,
//	                 FitTrace so far, every current A(i)_(ki) factor
//	                 partition, the buffer-manager snapshot and the
//	                 cumulative I/O statistics; the valid slot with the
//	                 highest sequence number is the latest.
//	result.ckpt      the final Result once the run completes; resuming
//	                 a completed run is a no-op that returns it.
//
// # Durability
//
// Every record carries a magic tag and a CRC32 and is checked when it is
// loaded. What differs is how a record reaches its file, and when it
// reaches the disk.
//
// manifest.json and result.ckpt are written a handful of times per run and
// replaced whole: serialize to a temp file in the checkpoint directory,
// fsync it, rename it into place, fsync the directory (WriteFileAtomic).
// Readers see the previous complete version or the new one.
//
// The per-block and per-step checkpoints are written hundreds of times per
// run, and creating a file each time cost more than the data: they go into
// files that already exist, and they are group-committed. SaveBlock and
// SavePhase2 write their whole record before they return, so a process
// killed after the call has lost nothing: the bytes are in the page cache.
// The fsync follows only once the last one is commitInterval old, and
// everything pending is synced before the manifest leaves Phase 1
// (BeginPhase2), before the result is installed (SaveResult), at Close,
// and when a resumed Open takes over what its predecessor wrote. A power
// loss therefore costs at most the last commitInterval of records, and
// those are either recomputable or backed by an older synced checkpoint:
//
//   - A Phase-1 record is appended to the log. A crash can damage only the
//     log's unsynced tail, which Open cuts off at the first record that
//     fails its checks; those blocks are recomputed, as any block without a
//     record is.
//   - A Phase-2 checkpoint overwrites, in place, the slot that does not
//     hold the newest synced checkpoint: the slot written since the last
//     sync, or else the other one. So the slot not being written always
//     holds a whole, synced checkpoint, and a torn or zeroed newer slot is
//     a normal crash outcome that loads as the older one. The first
//     Phase-2 checkpoint of a directory has no older one to fall back on,
//     so it alone is installed by rename; a slot file that exists was
//     therefore once whole, and slots present with none valid is
//     ErrCorrupt — Phase-2 state cannot be recomputed locally, and
//     silently restarting would discard progress the caller believes
//     durable.
//
// A failed fsync fails the call that issued it and is never retried: the
// kernel's copy of those pages can no longer be trusted. The log rolls back
// to its synced end and forgets the records after it, so a resume
// recomputes those blocks; the newest checkpoint is again the synced one.
package runstate

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"twopcp/internal/obs"
)

// Version is the manifest schema version this package writes. Version 1
// kept one file per Phase-1 block (p1-block-<id>.ckpt) and one phase2.ckpt;
// its manifest body and result.ckpt are the same, so a finished version-1
// directory still reads, and an unfinished one is refused with ErrVersion.
const Version = 2

// commitInterval is how long a written checkpoint record may wait for its
// fsync. A block or a step that takes longer is synced on its own; faster
// checkpoint traffic shares one flush, which costs more than the work it
// protects. (ext4 commits ordinary writes only every 5 s.)
const commitInterval = time.Second

var (
	// ErrNoManifest is returned when resuming from a directory that holds
	// no (complete) manifest.
	ErrNoManifest = errors.New("runstate: no manifest")
	// ErrMismatch is returned when a manifest's option fingerprint does not
	// match the resuming run's options.
	ErrMismatch = errors.New("runstate: manifest does not match run options")
	// ErrCorrupt marks a manifest or checkpoint whose CRC or framing is
	// invalid.
	ErrCorrupt = errors.New("runstate: corrupt checkpoint")
	// ErrExists is returned when starting a fresh (non-resume) run in a
	// directory that already holds a manifest.
	ErrExists = errors.New("runstate: checkpoint directory already holds a run manifest")
	// ErrVersion is returned when resuming an unfinished run whose
	// checkpoints were written in an older layout this build does not read:
	// ignoring them would silently redo work the caller believes durable.
	ErrVersion = errors.New("runstate: checkpoint directory was written by an older version")
)

// Stage is the run's coarse progress marker.
type Stage string

const (
	// StagePhase1 means per-block decompositions are (or were) in progress.
	StagePhase1 Stage = "phase1"
	// StagePhase2 means Phase 1 completed and refinement is in progress.
	StagePhase2 Stage = "phase2"
	// StageDone means the run completed and result.ckpt holds the Result.
	StageDone Stage = "done"
)

// Meta is the option fingerprint recorded in the manifest. Resume compares
// it field-for-field: every field here changes the run's results, so a
// mismatch means the checkpoint belongs to a different computation.
// Parallelism and I/O-pipeline knobs (Workers, KernelWorkers,
// PrefetchDepth, IOWorkers) are deliberately absent — results are
// bit-identical at every setting, so a run may be resumed with different
// parallelism.
type Meta struct {
	// InputKind distinguishes the pipeline front-end: "dense", "sparse" or
	// "tiled".
	InputKind string `json:"input_kind"`
	// Dims are the input tensor's mode sizes.
	Dims []int `json:"dims"`
	// Partitions is the resolved pattern K (one entry per mode).
	Partitions []int `json:"partitions"`
	Rank       int   `json:"rank"`
	// Schedule and Replacement are the paper abbreviations (HO, FOR, ...).
	Schedule    string `json:"schedule"`
	Replacement string `json:"replacement"`
	// The remaining fields are recorded exactly as the caller passed them
	// (zero means "the default"), so a resume with the same literal options
	// matches.
	BufferFraction float64 `json:"buffer_fraction"`
	MaxIters       int     `json:"max_iters"`
	Tol            float64 `json:"tol"`
	Phase1MaxIters int     `json:"phase1_max_iters"`
	Phase1Tol      float64 `json:"phase1_tol"`
	Seed           int64   `json:"seed"`
	// Constraint identifies the row-update solver ("" = least squares,
	// "ridge", "nonneg") and Lambda the ridge damping weight. Both change
	// every factor the run produces, so resuming a constrained checkpoint
	// with a different solver (or weight) must be rejected. omitempty
	// keeps unconstrained manifests byte-compatible with pre-solver
	// releases, so their checkpoints remain resumable.
	Constraint string  `json:"constraint,omitempty"`
	Lambda     float64 `json:"lambda,omitempty"`
	// Accelerator identifies the Phase-0 strategy ("" = none, "tucker")
	// with its tuning knobs. Phase 0 re-derives the warm
	// start deterministically from these options plus Seed on resume, so
	// they change every factor an accelerated run produces and a resume
	// with different values must be rejected. omitempty keeps
	// brute-force manifests byte-compatible with pre-accelerator
	// releases.
	Accelerator      string `json:"accelerator,omitempty"`
	Phase0Rank       int    `json:"phase0_rank,omitempty"`
	SketchOversample int    `json:"sketch_oversample,omitempty"`
	// Stitch is the version of how Phase 2's start is derived from the
	// Phase-1 blocks (refine.StitchVersion). It changes every factor a
	// run produces, and a resume re-derives that start from the block
	// log, so an unfinished directory written under another version is
	// refused; a finished one still returns its recorded result. A
	// manifest from before the field was added records none.
	Stitch int `json:"stitch,omitempty"`
}

// manifestBody is the CRC-protected content of manifest.json.
type manifestBody struct {
	Meta      Meta  `json:"meta"`
	Stage     Stage `json:"stage"`
	NumBlocks int   `json:"num_blocks"`
	// Phase0Accelerated and Phase0NS record the Phase-0 outcome of the
	// original run (warm start installed? wall clock). A resume that has
	// advanced past Phase 1 skips recomputing Phase 0, so the final
	// Result restores these instead of misreporting an unaccelerated
	// run. Outcome, not fingerprint: deliberately NOT part of Meta, which
	// is compared field-for-field on resume.
	Phase0Accelerated bool  `json:"phase0_accelerated,omitempty"`
	Phase0NS          int64 `json:"phase0_ns,omitempty"`
}

// envelope frames the manifest body with a version and a CRC32 (IEEE) of
// the exact body bytes.
type envelope struct {
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Body    json.RawMessage `json:"body"`
}

// Run is a handle on one checkpoint directory. It is safe for concurrent
// use (Phase-1 workers checkpoint blocks in parallel).
type Run struct {
	dir string

	// mu guards everything below it, file I/O included: a checkpoint is
	// encoded into buf, written and synced under it.
	mu   sync.Mutex
	body manifestBody
	// buf is the record being built — record header, section header and
	// matrices encoded once, in place — reused by every Save.
	buf []byte

	// The Phase-1 block log (blocklog.go): its handle once opened, the
	// offset the next record goes to, and the newest valid record of each
	// block id.
	log    *os.File
	logEnd int64
	blocks map[int]logRecord

	// The Phase-2 slots (phase2.go): their handles once opened, and — once
	// slotsKnown — which slot holds the newest valid checkpoint (-1: none)
	// and its sequence number.
	slots      [numSlots]*os.File
	slotsKnown bool
	newest     int
	seq        uint64

	// Group commit: the log offset up to which records are synced, the
	// slot written since the last sync (-1: none) and when that sync was.
	logSynced int64
	dirtySlot int
	lastSync  time.Time
	// now and fsync are the clock commitInterval is measured on and the
	// sync every commit issues; tests replace them.
	now   func() time.Time
	fsync func(*os.File) error

	// Telemetry (see SetObserver). tele is read without mu — it is set
	// once before the run's worker pools start.
	tele        *obs.Observer
	cCkptWrites *obs.Counter
	cCkptBytes  *obs.Counter
	cManifest   *obs.Counter
	cSyncs      *obs.Counter
	hSyncUS     *obs.Histogram
}

// SetObserver attaches telemetry to the run handle: a checkpoint.write
// trace event plus write/byte counters per checkpoint record, and — metrics
// only — a manifest-rewrite counter and the group commit's fsync count and
// latency. Call it once, before any checkpoint activity.
func (r *Run) SetObserver(ob *obs.Observer) {
	r.tele = ob
	r.cCkptWrites = ob.Counter("runstate.checkpoint_writes")
	r.cCkptBytes = ob.Counter("runstate.checkpoint_bytes")
	r.cManifest = ob.Counter("runstate.manifest_writes")
	r.cSyncs = ob.Counter("runstate.syncs")
	r.hSyncUS = ob.Histogram("runstate.sync_us")
}

// noteCheckpointWrite reports one durable checkpoint record to telemetry.
// name identifies the record, not the file that holds it: a block record is
// p1-block-<id>.ckpt and a Phase-2 checkpoint phase2.ckpt whichever log
// offset or slot they went to, so traces compare across layouts.
func (r *Run) noteCheckpointWrite(name string, bytes int) {
	r.cCkptWrites.Inc()
	r.cCkptBytes.Add(int64(bytes))
	if r.tele.Tracing() {
		r.tele.Emit("checkpoint.write", obs.Str("file", name), obs.Int("bytes", bytes))
	}
}

// Open creates (resume=false) or loads (resume=true) the run manifest in
// dir.
//
// A fresh run requires a directory without a manifest (ErrExists
// otherwise); any stale checkpoint files from an earlier, manifest-less
// state are removed so they can never leak into the new run. A resumed run
// requires a manifest (ErrNoManifest) whose Meta matches field-for-field
// (ErrMismatch); numBlocks must also agree. An unfinished run in the
// version-1 layout is refused with ErrVersion; a finished one opens, since
// its result file is unchanged.
//
// Close the Run when done with it; SaveResult does so itself.
func Open(dir string, meta Meta, numBlocks int, resume bool) (*Run, error) {
	r := newRun(dir)
	if err := r.open(meta, numBlocks, resume); err != nil {
		r.closeFiles()
		return nil, err
	}
	return r, nil
}

// newRun returns an unopened handle on dir that syncs with fsync and
// measures commitInterval on the wall clock.
func newRun(dir string) *Run {
	return &Run{dir: dir, blocks: make(map[int]logRecord), dirtySlot: -1, now: time.Now, fsync: (*os.File).Sync}
}

func (r *Run) open(meta Meta, numBlocks int, resume bool) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return fmt.Errorf("runstate: create checkpoint dir: %w", err)
	}
	path := r.manifestPath()
	// A SIGKILL can land between WriteFileAtomic's CreateTemp and rename;
	// no writer is live at Open time, so any temp file here is dead weight
	// from a previous crash.
	if err := r.removeFiles(isTempFile); err != nil {
		return err
	}
	if resume {
		body, version, err := loadManifest(path)
		if err != nil {
			return err
		}
		if version != Version && body.Stage != StageDone {
			return fmt.Errorf("%w: %s is an unfinished run at manifest version %d and this build resumes version %d; finish it with the build that started it, or start over in a fresh directory",
				ErrVersion, r.dir, version, Version)
		}
		recorded := body.Meta
		if body.Stage == StageDone {
			// A finished run's Result is final: how its Phase 2 started
			// does not change what a no-op resume returns.
			recorded.Stitch = meta.Stitch
		}
		if !reflect.DeepEqual(recorded, meta) {
			return fmt.Errorf("%w: manifest records %+v, run has %+v", ErrMismatch, body.Meta, meta)
		}
		if body.NumBlocks != numBlocks {
			return fmt.Errorf("%w: manifest records %d blocks, run has %d", ErrMismatch, body.NumBlocks, numBlocks)
		}
		r.body = *body
		if body.Stage == StageDone {
			return nil
		}
		if err := r.openLog(); err != nil {
			return err
		}
		return r.syncInherited()
	}
	if _, err := os.Lstat(path); err == nil {
		return fmt.Errorf("%w: %s (pass Resume to continue it, or use a fresh directory)", ErrExists, r.dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("runstate: stat manifest: %w", err)
	}
	if err := r.removeFiles(isStaleCheckpoint); err != nil {
		return err
	}
	r.body = manifestBody{Meta: meta, Stage: StagePhase1, NumBlocks: numBlocks}
	r.lastSync = r.now()
	return r.saveManifestLocked()
}

// syncInherited syncs the log and slots a resumed run finds, before its
// first write: it cannot know what its predecessor left unsynced, and the
// slot rule counts on the newest checkpoint it loads being on disk.
func (r *Run) syncInherited() error {
	for _, name := range [...]string{logName, slotName(0), slotName(1)} {
		f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_RDWR, 0)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err == nil {
			err = r.sync(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("runstate: sync inherited %s: %w", name, err)
		}
	}
	r.logSynced, r.lastSync = r.logEnd, r.now()
	return nil
}

// Dir returns the checkpoint directory.
func (r *Run) Dir() string { return r.dir }

// Stage returns the run's current stage.
func (r *Run) Stage() Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Stage
}

// Meta returns the recorded option fingerprint.
func (r *Run) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Meta
}

// RecordPhase0 durably records the Phase-0 outcome (see manifestBody).
// Called right after Phase 0 runs — including deterministic recomputation
// on a Phase-1 resume, which rewrites the same values.
func (r *Run) RecordPhase0(accelerated bool, ns int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.body.Phase0Accelerated = accelerated
	r.body.Phase0NS = ns
	return r.saveManifestLocked()
}

// Phase0 returns the recorded Phase-0 outcome (zero values for
// brute-force runs and pre-accelerator manifests).
func (r *Run) Phase0() (accelerated bool, ns int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Phase0Accelerated, r.body.Phase0NS
}

// Phase1Completed returns how many Phase-1 blocks have a valid record in
// the block log.
func (r *Run) Phase1Completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.blocks)
}

// Close syncs every record still pending and releases the log and slot
// handles. It is idempotent, and a Run closed early reopens what a later
// call needs.
func (r *Run) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeLocked()
}

func (r *Run) closeLocked() error {
	err := r.commitLocked()
	if cerr := r.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (r *Run) closeFiles() error {
	open := [...]*os.File{r.log, r.slots[0], r.slots[1]}
	r.log, r.slots = nil, [numSlots]*os.File{}
	var first error
	for _, f := range open {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("runstate: close %s: %w", filepath.Base(f.Name()), err)
		}
	}
	return first
}

// commitDueLocked commits once the last sync is commitInterval old.
func (r *Run) commitDueLocked() error {
	if r.now().Sub(r.lastSync) < commitInterval {
		return nil
	}
	return r.commitLocked()
}

// commitLocked syncs every record written since the last sync. A failed
// fsync is undone rather than retried: the log forgets the records past its
// synced end, and the newest checkpoint is again the synced one in the
// other slot, so the next save overwrites the slot that failed.
func (r *Run) commitLocked() error {
	var errs []error
	if r.logEnd > r.logSynced {
		if err := r.sync(r.log); err != nil {
			for id, rec := range r.blocks {
				if rec.off >= r.logSynced {
					delete(r.blocks, id)
				}
			}
			r.logEnd = r.logSynced
			errs = append(errs, fmt.Errorf("runstate: sync block log: %w", err))
		}
		r.logSynced = r.logEnd
	}
	if slot := r.dirtySlot; slot >= 0 {
		r.dirtySlot = -1
		if err := r.sync(r.slots[slot]); err != nil {
			r.newest = 1 - slot
			errs = append(errs, fmt.Errorf("runstate: sync %s: %w", slotName(slot), err))
		}
	}
	r.lastSync = r.now()
	return errors.Join(errs...)
}

// sync is the one fsync of the log and the slots, counted and timed.
func (r *Run) sync(f *os.File) error {
	start := time.Now()
	err := r.fsync(f)
	r.cSyncs.Inc()
	r.hSyncUS.Observe(float64(time.Since(start).Microseconds()))
	return err
}

// BeginPhase2 syncs every block record, then marks Phase 1 complete. It is
// idempotent.
func (r *Run) BeginPhase2() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.commitLocked(); err != nil {
		return err
	}
	if r.body.Stage != StagePhase1 {
		return nil
	}
	r.body.Stage = StagePhase2
	return r.saveManifestLocked()
}

func (r *Run) manifestPath() string { return filepath.Join(r.dir, "manifest.json") }

// saveManifestLocked atomically rewrites manifest.json. Called with mu held
// (or before the Run is shared).
func (r *Run) saveManifestLocked() error {
	body, err := json.Marshal(r.body)
	if err != nil {
		return fmt.Errorf("runstate: marshal manifest: %w", err)
	}
	env, err := json.Marshal(envelope{Version: Version, CRC32: crc32.ChecksumIEEE(body), Body: body})
	if err != nil {
		return fmt.Errorf("runstate: marshal manifest envelope: %w", err)
	}
	r.cManifest.Inc()
	return WriteFileAtomic(r.dir, "manifest.json", append(env, '\n'))
}

// loadManifest reads a manifest of this version or of version 1, whose
// body differs only by a phase1_done summary nothing reads.
func loadManifest(path string) (*manifestBody, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w in %s", ErrNoManifest, filepath.Dir(path))
		}
		return nil, 0, fmt.Errorf("runstate: read manifest: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, 0, fmt.Errorf("%w: manifest is not valid JSON: %v", ErrCorrupt, err)
	}
	if env.Version != Version && env.Version != 1 {
		return nil, 0, fmt.Errorf("runstate: manifest version %d, this build reads 1 and %d", env.Version, Version)
	}
	if crc32.ChecksumIEEE(env.Body) != env.CRC32 {
		return nil, 0, fmt.Errorf("%w: manifest body CRC mismatch", ErrCorrupt)
	}
	var body manifestBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		return nil, 0, fmt.Errorf("%w: manifest body: %v", ErrCorrupt, err)
	}
	switch body.Stage {
	case StagePhase1, StagePhase2, StageDone:
	default:
		return nil, 0, fmt.Errorf("%w: unknown stage %q", ErrCorrupt, body.Stage)
	}
	return &body, env.Version, nil
}

// ReadMeta returns the option fingerprint recorded in dir's manifest
// without opening the run — the read-only path snapshot exporters use to
// stamp derived artifacts with the options that produced them. It fails
// with ErrNoManifest when dir holds no run and ErrCorrupt when the
// manifest is damaged.
func ReadMeta(dir string) (Meta, error) {
	body, _, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return Meta{}, err
	}
	return body.Meta, nil
}

// HasManifest reports whether dir holds a run manifest — the
// resume-or-create predicate for callers that manage a family of
// checkpoint subdirectories (an interrupted multi-run suite may have
// started only some of them before the crash).
func HasManifest(dir string) bool {
	_, err := os.Lstat(filepath.Join(dir, "manifest.json"))
	return err == nil
}

// isStaleCheckpoint matches checkpoint artifacts left behind without a
// manifest (e.g. from an interrupted cleanup); a fresh run removes them so
// it can never load state it did not write. The version-1 names
// (phase2.ckpt, p1-block-<id>.ckpt) are included.
func isStaleCheckpoint(name string) bool {
	switch name {
	case logName, slotName(0), slotName(1), "result.ckpt", "phase2.ckpt":
		return true
	}
	return strings.HasPrefix(name, "p1-block-") || isTempFile(name)
}

// isTempFile matches WriteFileAtomic's in-flight temp names.
func isTempFile(name string) bool { return strings.Contains(name, ".tmp-") }

// removeFiles deletes every directory entry matching the predicate.
func (r *Run) removeFiles(match func(name string) bool) error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("runstate: scan checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if !match(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(r.dir, e.Name())); err != nil {
			return fmt.Errorf("runstate: remove stale %s: %w", e.Name(), err)
		}
	}
	return nil
}

// WriteFileAtomic durably installs data at dir/name with the package's
// discipline for files replaced whole: temp file, fsync, rename, directory
// fsync. Readers observe either the previous complete file or the new
// complete file, and the rename survives a crash. It is exported so sibling
// durability layers (the jobs store) install their records with exactly
// the same guarantees as run manifests.
func WriteFileAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("runstate: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("runstate: write %s: %w", name, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("runstate: sync %s: %w", name, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstate: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstate: install %s: %w", name, err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("runstate: dirsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("runstate: dirsync: %w", err)
	}
	return nil
}

// A frame is the framing of result.ckpt, a file replaced whole, whose length
// is therefore the checkpoint's: a 4-byte magic and a little-endian CRC32
// (IEEE) of the payload, then the payload.
const frameHeaderLen = 8

// frame fills in the header of b, frameHeaderLen reserved bytes followed by
// the payload; unframe validates and strips it.
func frame(magic string, b []byte) {
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[frameHeaderLen:]))
}

func unframe(magic string, data []byte) ([]byte, error) {
	if len(data) < frameHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than its %s header", ErrCorrupt, len(data), magic)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %s)", ErrCorrupt, data[:4], magic)
	}
	payload := data[frameHeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, fmt.Errorf("%w: %s payload CRC mismatch", ErrCorrupt, magic)
	}
	return payload, nil
}

// A record is the framing of a checkpoint inside a file written in place
// (the block log, a Phase-2 slot), where the file's length says nothing
// about the checkpoint's:
//
//	magic (4) | payload length uint64 | crc32 of length and payload | payload
//
// sealRecord fills in the header of b, recordHeaderLen reserved bytes
// followed by the payload. parseRecord returns the payload of the record at
// the front of b, or ok=false when b does not start with a whole, valid
// one; the declared length is checked against len(b) before it is used.
const recordHeaderLen = 16

func recordCRC(b []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(b[4:12]), crc32.IEEETable, b[recordHeaderLen:])
}

func sealRecord(magic string, b []byte) {
	copy(b, magic)
	binary.LittleEndian.PutUint64(b[4:], uint64(len(b)-recordHeaderLen))
	binary.LittleEndian.PutUint32(b[12:], recordCRC(b))
}

func parseRecord(magic string, b []byte) (payload []byte, ok bool) {
	if len(b) < recordHeaderLen || string(b[:4]) != magic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(b[4:])
	if n > uint64(len(b)-recordHeaderLen) {
		return nil, false
	}
	b = b[:recordHeaderLen+int(n)]
	if recordCRC(b) != binary.LittleEndian.Uint32(b[12:]) {
		return nil, false
	}
	return b[recordHeaderLen:], true
}

// openOrCreate opens dir/name read-write, creating it — and making its
// directory entry durable — when it does not exist yet.
func openOrCreate(dir, name string) (*os.File, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	if f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
