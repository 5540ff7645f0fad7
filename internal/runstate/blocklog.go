package runstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"twopcp/internal/mat"
)

// The Phase-1 block log is a sequence of records (see sealRecord), one per
// SaveBlock, whose payload is
//
//	int32 block id | float64 ALS fit | int32 modes | one matrix per mode
//
// A valid record is the block's completion record; of two records for one
// id the later wins. The log is only ever appended to, so a crash can
// damage nothing but its tail.
const (
	logName        = "p1-blocks.log"
	blockMagic     = "TP1B"
	blockHeaderLen = 16
)

// logRecord locates one whole record, header included, in the log.
type logRecord struct {
	off int64
	n   int
}

// blockID returns the block id a record's payload opens with, or -1 when
// the payload is too short to be a block's.
func blockID(payload []byte) int {
	if len(payload) < blockHeaderLen {
		return -1
	}
	return int(int32(binary.LittleEndian.Uint32(payload)))
}

// parseLog indexes the valid records at the front of a log's bytes and
// returns where they end: the first record that fails its length, magic or
// CRC, and whatever follows it, is not part of the log. A record whose id
// no block of the run has is stepped over.
func parseLog(data []byte, numBlocks int, index map[int]logRecord) (end int64) {
	for {
		payload, ok := parseRecord(blockMagic, data[end:])
		if !ok {
			return end
		}
		n := recordHeaderLen + len(payload)
		if id := blockID(payload); id >= 0 && id < numBlocks {
			index[id] = logRecord{off: end, n: n}
		}
		end += int64(n)
	}
}

// openLog indexes the log a resumed run finds and cuts a torn tail off it,
// so that records appended from here on follow the last valid one. The cut
// is synced with everything else the run inherits (syncInherited).
func (r *Run) openLog() error {
	data, err := os.ReadFile(filepath.Join(r.dir, logName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("runstate: read block log: %w", err)
	}
	r.logEnd = parseLog(data, r.body.NumBlocks, r.blocks)
	if r.logEnd == int64(len(data)) {
		return nil
	}
	f, err := r.logFile()
	if err == nil {
		err = f.Truncate(r.logEnd)
	}
	if err != nil {
		return fmt.Errorf("runstate: cut torn tail off block log: %w", err)
	}
	return nil
}

// logFile returns the log's handle, opening (on first use in a fresh run,
// creating) the file. Called with mu held.
func (r *Run) logFile() (f *os.File, err error) {
	if r.log == nil {
		r.log, err = openOrCreate(r.dir, logName)
	}
	return r.log, err
}

// SaveBlock records the completed Phase-1 block: its λ-folded sub-factors
// and ALS fit are appended to the block log with one write, which is
// group-committed (see the package documentation) — the record survives
// the process once SaveBlock returns, and the disk within commitInterval.
// It implements phase1.Checkpointer and is safe for concurrent use by the
// Phase-1 worker pool.
func (r *Run) SaveBlock(id int, factors []*mat.Matrix, fit float64) error {
	r.mu.Lock()
	b := append(r.buf[:0], make([]byte, recordHeaderLen)...)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(id)))
	b = mat.AppendFloats(b, []float64{fit})
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(len(factors))))
	for _, f := range factors {
		b = mat.AppendMatrix(b, f)
	}
	sealRecord(blockMagic, b)
	r.buf = b
	f, err := r.logFile()
	if err == nil {
		// logEnd moves only once the record is written: one that failed
		// part-way is overwritten by the next.
		if _, err = f.WriteAt(b, r.logEnd); err == nil {
			r.blocks[id] = logRecord{off: r.logEnd, n: len(b)}
			r.logEnd += int64(len(b))
		}
	}
	if err != nil {
		err = fmt.Errorf("runstate: append block %d to log: %w", id, err)
	} else {
		err = r.commitDueLocked()
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.noteCheckpointWrite(fmt.Sprintf("p1-block-%d.ckpt", id), len(b))
	return nil
}

// LoadBlock returns the checkpointed sub-factors and fit of block id, or
// ok=false when the block has no (usable) record. A record that no longer
// passes its CRC is treated as absent — the block is re-derivable from the
// input, so recomputing beats failing the resume. Only real I/O errors
// (permissions, disk faults) are returned. It implements
// phase1.Checkpointer.
func (r *Run) LoadBlock(id int) ([]*mat.Matrix, float64, bool, error) {
	r.mu.Lock()
	rec, ok := r.blocks[id]
	if !ok {
		r.mu.Unlock()
		return nil, 0, false, nil
	}
	data := make([]byte, rec.n)
	f, err := r.logFile()
	if err == nil {
		_, err = f.ReadAt(data, rec.off)
	}
	r.mu.Unlock()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, false, nil // the log shrank under its index: recompute
		}
		return nil, 0, false, fmt.Errorf("runstate: read block %d: %w", id, err)
	}
	payload, ok := parseRecord(blockMagic, data)
	if !ok || blockID(payload) != id {
		return nil, 0, false, nil
	}
	var fit [1]float64
	mat.DecodeFloats(fit[:], payload[4:])
	modes := int(int32(binary.LittleEndian.Uint32(payload[12:])))
	factors, err := decodeMatrices("block", payload[blockHeaderLen:], modes)
	if err != nil {
		return nil, 0, false, nil
	}
	return factors, fit[0], true, nil
}
