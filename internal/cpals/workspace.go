package cpals

import (
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Workspace holds the reusable scratch of a CP-ALS run: the per-mode MTTKRP
// accumulators, the dense MTTKRP sweep with its contraction buffer (at
// most cells·F/I_0 floats, unused when F > I_0), the Hadamard-of-Grams system
// matrix V, the Gram cache, the normal-equation solve buffers and the
// column-normalization scratch.
//
// A Phase-1 run decomposes thousands of blocks; without a workspace every
// block's every sweep allocates fresh matrices for all of these. Passing a
// Workspace through Options.Workspace makes steady-state sweeps
// allocation-free (factor matrices themselves are still allocated — they
// are the output).
//
// A Workspace may be reused across Decompose calls of any shapes and ranks
// (buffers grow and are re-sliced on demand) but must not be shared by
// concurrent calls. Reusing one never changes results: every buffer is
// fully overwritten before use.
type Workspace struct {
	mttkrp map[int]*mat.Matrix // MTTKRP accumulators keyed by row count
	sweep  tensor.Sweep        // dense MTTKRP kernel; bound only during Decompose
	rank   int                 // column count the cached buffers were built for
	v      *mat.Matrix         // Hadamard of Grams (rank×rank)
	grams  []*mat.Matrix       // per-mode Gram cache (rank×rank each)
	lambda []float64
	norms  []float64
	inv    []float64
	solver SolverScratch
}

// NewWorkspace returns an empty workspace; buffers are created on first
// use.
func NewWorkspace() *Workspace { return &Workspace{} }

// reset prepares the workspace for a run with the given mode count and
// rank, invalidating cached buffers whose shape depends on the rank.
func (w *Workspace) reset(modes, rank int) {
	if w.rank != rank {
		w.rank = rank
		w.mttkrp = nil
		w.v = nil
		w.grams = nil
	}
	if w.mttkrp == nil {
		w.mttkrp = make(map[int]*mat.Matrix)
	}
	if w.v == nil {
		w.v = mat.New(rank, rank)
	}
	for len(w.grams) < modes {
		w.grams = append(w.grams, mat.New(rank, rank))
	}
	if cap(w.lambda) < rank {
		w.lambda = make([]float64, rank)
		w.norms = make([]float64, rank)
		w.inv = make([]float64, rank)
	}
	w.lambda = w.lambda[:rank]
	w.norms = w.norms[:rank]
	w.inv = w.inv[:rank]
}

// mttkrpBuf returns the rows×rank MTTKRP accumulator for a mode with the
// given row count.
func (w *Workspace) mttkrpBuf(rows int) *mat.Matrix {
	m := w.mttkrp[rows]
	if m == nil {
		m = mat.New(rows, w.rank)
		w.mttkrp[rows] = m
	}
	return m
}
