package runstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/mat"
)

// A Phase-2 checkpoint is a record (see sealRecord) whose payload is a
// uint64 sequence number, one higher per checkpoint, and the section: the
// phase2Header JSON, then the A partitions. It sits at offset 0 of a slot
// file; bytes past it are left over from a longer checkpoint and mean
// nothing.
const (
	phase2Magic = "TP2S"
	numSlots    = 2
)

func slotName(i int) string { return fmt.Sprintf("phase2-%d.ckpt", i) }

// BufferState is the buffer manager's replacement-relevant snapshot, the
// buffer.State that Snapshot returns and Restore takes. Restoring it makes
// every subsequent hit/miss/eviction decision — and therefore the paper's
// swap counts — identical to the uninterrupted run's.
type BufferState = buffer.State

// Progress is Phase 2's position in its loop over schedule steps: where
// replay resumes, how far the run has counted in virtual iterations and
// the convergence state at that point. The engine advances
// one Progress in place; a checkpoint carries it as it stands at a
// schedule-step boundary and a resume continues from it.
type Progress struct {
	// NextStep is the schedule step index replay resumes at.
	NextStep int `json:"next_step"`
	// Pos is the engine's position in the cyclic access string.
	Pos int `json:"pos"`
	// Updates counts sub-factor updates performed so far.
	Updates int `json:"updates"`
	// VirtualIters and FitTrace are the completed virtual iterations and
	// their surrogate-fit trajectory.
	VirtualIters int       `json:"virtual_iters"`
	FitTrace     []float64 `json:"fit_trace"`
	// PrevFit is the fit at the last virtual-iteration boundary (the
	// convergence comparand); a fresh run starts it at the seeded fit.
	PrevFit float64 `json:"prev_fit"`
}

// Phase2State is one Phase-2 checkpoint, taken at a schedule-step boundary.
// Together with the (re-derivable) Phase-1 sub-factors it is the complete
// mutable state of the refinement: the A factor partitions carry the
// numbers, everything else pins the engine's position so replay continues
// exactly where the checkpoint was taken. Progress is embedded first, so
// its fields lead the JSON header in their declared order.
type Phase2State struct {
	Progress
	// Buffer is the buffer-manager snapshot.
	Buffer BufferState `json:"buffer"`
	// StoreStats is the cumulative store traffic at the checkpoint.
	StoreStats blockstore.Stats `json:"store_stats"`
	// A[mode][part] are the current factor partitions A(mode)_(part); they
	// travel in the binary section of the checkpoint file, not the JSON
	// header.
	A [][]*mat.Matrix `json:"-"`
}

// phase2Header is the JSON half of the checkpoint; AParts records the
// per-mode partition counts so the binary matrix section is self-framing.
type phase2Header struct {
	Phase2State
	AParts []int `json:"a_parts"`
}

// scanSlots reads both slot files and returns the payload of the valid
// checkpoint with the highest sequence number — nil when there is none,
// with present reporting whether a slot file exists at all — leaving newest
// and seq describing it. Of two equal sequence numbers, which this package
// never writes, slot 0 wins. Called with mu held.
func (r *Run) scanSlots() (payload []byte, present bool, err error) {
	r.slotsKnown, r.newest, r.seq = false, -1, 0
	for i := 0; i < numSlots; i++ {
		data, err := os.ReadFile(filepath.Join(r.dir, slotName(i)))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, false, fmt.Errorf("runstate: read phase2 checkpoint: %w", err)
		}
		present = true
		p, ok := parseRecord(phase2Magic, data)
		if !ok || len(p) < 8 {
			continue
		}
		if seq := binary.LittleEndian.Uint64(p); payload == nil || seq > r.seq {
			payload, r.newest, r.seq = p[8:], i, seq
		}
	}
	r.slotsKnown = true
	return payload, present, nil
}

// SavePhase2 records st as the latest Phase-2 checkpoint with one write,
// group-committed like SaveBlock, over the slot that does not hold the
// newest synced checkpoint: the slot written since the last sync, or else
// the other one. The synced checkpoint before st survives whatever happens
// to this write. The first checkpoint of a directory has none before it
// and is installed by rename instead (see the package documentation). It
// implements refine.Checkpointer.
func (r *Run) SavePhase2(st *Phase2State) error {
	hdr := phase2Header{Phase2State: *st, AParts: make([]int, len(st.A))}
	var mats []*mat.Matrix
	for m, row := range st.A {
		hdr.AParts[m] = len(row)
		mats = append(mats, row...)
	}
	r.mu.Lock()
	n, err := r.savePhase2Locked(hdr, mats)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.noteCheckpointWrite("phase2.ckpt", n)
	return nil
}

func (r *Run) savePhase2Locked(hdr phase2Header, mats []*mat.Matrix) (int, error) {
	if !r.slotsKnown {
		if _, _, err := r.scanSlots(); err != nil {
			return 0, err
		}
	}
	b := append(r.buf[:0], make([]byte, recordHeaderLen)...)
	b = binary.LittleEndian.AppendUint64(b, r.seq+1)
	b, err := appendSection(b, "phase2", hdr, mats)
	if err != nil {
		return 0, err
	}
	sealRecord(phase2Magic, b)
	r.buf = b
	slot := 0
	if r.newest < 0 {
		err = WriteFileAtomic(r.dir, slotName(slot), b)
	} else {
		if slot = r.dirtySlot; slot < 0 {
			slot = 1 - r.newest
		}
		if err = r.overwriteSlot(slot, b); err == nil {
			r.dirtySlot = slot
		}
	}
	if err != nil {
		return 0, err
	}
	r.newest, r.seq = slot, r.seq+1
	return len(b), r.commitDueLocked()
}

// overwriteSlot writes b over the slot file from offset 0, opening (the
// first time slot 1 is used, creating) it. Called with mu held.
func (r *Run) overwriteSlot(slot int, b []byte) (err error) {
	if r.slots[slot] == nil {
		r.slots[slot], err = openOrCreate(r.dir, slotName(slot))
	}
	if err == nil {
		_, err = r.slots[slot].WriteAt(b, 0)
	}
	if err != nil {
		return fmt.Errorf("runstate: write %s: %w", slotName(slot), err)
	}
	return nil
}

// LoadPhase2 returns the latest Phase-2 checkpoint — the valid slot with
// the highest sequence number — or ok=false when there is no slot file
// (fresh run, or the run was interrupted before its first Phase-2
// checkpoint). A torn newer slot is what a crash during SavePhase2 leaves
// and loads as the older one. Slot files with no valid checkpoint among
// them are an error, unlike a damaged Phase-1 record: Phase-2 state cannot
// be recomputed locally, and silently restarting Phase 2 would discard
// real progress the caller believes is durable. It implements
// refine.Checkpointer.
func (r *Run) LoadPhase2() (*Phase2State, bool, error) {
	r.mu.Lock()
	payload, present, err := r.scanSlots()
	r.mu.Unlock()
	if err != nil || !present {
		return nil, false, err
	}
	if payload == nil {
		return nil, false, fmt.Errorf("%w: no phase2 slot holds a whole checkpoint", ErrCorrupt)
	}
	st, err := decodePhase2(payload)
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}

// decodePhase2 decodes a checkpoint's section (the payload after its
// sequence number).
func decodePhase2(section []byte) (*Phase2State, error) {
	var hdr phase2Header
	rest, err := decodeSection("phase2", section, &hdr)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, parts := range hdr.AParts {
		if parts < 0 || parts > len(rest) {
			return nil, fmt.Errorf("%w: phase2 declares %d partitions", ErrCorrupt, parts)
		}
		total += parts
	}
	mats, err := decodeMatrices("phase2", rest, total)
	if err != nil {
		return nil, err
	}
	st := hdr.Phase2State
	st.A = make([][]*mat.Matrix, len(hdr.AParts))
	for m, parts := range hdr.AParts {
		st.A[m], mats = mats[:parts], mats[parts:]
	}
	return &st, nil
}
