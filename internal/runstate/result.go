package runstate

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"twopcp/internal/mat"
)

// resultMagic tags the final-result checkpoint file.
const resultMagic = "TPRS"

// ResultState is the persisted form of a completed run's Result. Resuming
// a finished run returns it without recomputation (the no-op resume
// contract). The factor matrices travel in the binary section; everything
// else is the JSON header.
type ResultState struct {
	Fit          float64   `json:"fit"`
	Phase1NS     int64     `json:"phase1_ns"`
	Phase2NS     int64     `json:"phase2_ns"`
	VirtualIters int       `json:"virtual_iters"`
	Converged    bool      `json:"converged"`
	FitTrace     []float64 `json:"fit_trace"`
	Swaps        int64     `json:"swaps"`
	SwapsPerIter float64   `json:"swaps_per_iter"`
	BytesRead    int64     `json:"bytes_read"`
	BytesWritten int64     `json:"bytes_written"`
	// Phase0NS and Accelerated record the Phase-0 accelerator (zero /
	// false for brute-force runs; omitempty keeps pre-accelerator result
	// files byte-compatible).
	Phase0NS    int64 `json:"phase0_ns,omitempty"`
	Accelerated bool  `json:"accelerated,omitempty"`
	// The remaining RunStats fields (omitempty keeps pre-telemetry result
	// files byte-compatible; loading an old file reports them as zero).
	Blocks        int     `json:"blocks,omitempty"`
	Phase1Sweeps  int     `json:"phase1_sweeps,omitempty"`
	BufferHits    int64   `json:"buffer_hits,omitempty"`
	BufferHitRate float64 `json:"buffer_hit_rate,omitempty"`
	Evictions     int64   `json:"evictions,omitempty"`
	WriteBacks    int64   `json:"write_backs,omitempty"`
	// Retries counts transient-fault retries absorbed across the run
	// (omitempty keeps pre-resilience result files byte-compatible).
	Retries int64 `json:"retries,omitempty"`
	// Factors are the full per-mode factor matrices A(i).
	Factors []*mat.Matrix `json:"-"`
}

type resultHeader struct {
	ResultState
	NFactors int `json:"n_factors"`
}

func (r *Run) resultPath() string { return filepath.Join(r.dir, "result.ckpt") }

// SaveResult syncs every checkpoint still pending, durably records the
// completed run's Result, marks the manifest done and closes the run's file
// handles. The result file is installed before the stage flips, so a crash
// between the two leaves a resumable phase-2 state rather than a
// done-marker without a result.
func (r *Run) SaveResult(st *ResultState) error {
	hdr := resultHeader{ResultState: *st, NFactors: len(st.Factors)}
	r.mu.Lock()
	n, err := r.saveResultLocked(hdr, st.Factors)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.noteCheckpointWrite("result.ckpt", n)
	return nil
}

func (r *Run) saveResultLocked(hdr resultHeader, factors []*mat.Matrix) (int, error) {
	if err := r.commitLocked(); err != nil {
		return 0, err
	}
	b, err := appendSection(append(r.buf[:0], make([]byte, frameHeaderLen)...), "result", hdr, factors)
	if err != nil {
		return 0, err
	}
	frame(resultMagic, b)
	r.buf = b
	if err := WriteFileAtomic(r.dir, "result.ckpt", b); err != nil {
		return 0, err
	}
	r.body.Stage = StageDone
	if err := r.saveManifestLocked(); err != nil {
		return 0, err
	}
	return len(b), r.closeLocked()
}

// LoadResult returns the completed run's Result. It fails with ErrCorrupt
// when the file is damaged and ErrNoManifest-style absence when the run
// never completed.
func (r *Run) LoadResult() (*ResultState, error) {
	st, err := readResultFile(r.resultPath())
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("runstate: run is marked done but %s is missing", filepath.Base(r.resultPath()))
	}
	return st, err
}

// ReadResult loads the completed result checkpoint from a run directory
// without opening the run — the read-only path snapshot exporters and the
// job daemon's self-heal use to recover factors from a finished
// checkpoint. A missing result file surfaces fs.ErrNotExist via
// errors.Is; a damaged one fails with ErrCorrupt.
func ReadResult(dir string) (*ResultState, error) {
	return readResultFile(filepath.Join(dir, "result.ckpt"))
}

// readResultFile reads and decodes one result.ckpt.
func readResultFile(path string) (*ResultState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstate: read result: %w", err)
	}
	return decodeResult(data)
}

// decodeResult decodes the bytes of one result.ckpt: CRC frame, JSON
// header, binary factor matrices. Every defect maps to ErrCorrupt.
func decodeResult(data []byte) (*ResultState, error) {
	payload, err := unframe(resultMagic, data)
	if err != nil {
		return nil, err
	}
	var hdr resultHeader
	rest, err := decodeSection("result", payload, &hdr)
	if err != nil {
		return nil, err
	}
	st := hdr.ResultState
	st.Factors, err = decodeMatrices("result", rest, hdr.NFactors)
	if err != nil {
		return nil, err
	}
	return &st, nil
}
