// Package serve answers interactive queries against a completed CP
// decomposition: the read path that turns computed factors into a
// low-latency service (the "serves heavy traffic" half of the roadmap's
// north star).
//
// A Model wraps a Kruskal model (λ plus one factor matrix per mode),
// usually a zero-copy view over a factorsnap file, and serves three query
// families:
//
//   - Reconstruct / ReconstructBlock — X̂[i₁…i_N] = Σ_f λ_f Π_n A⁽ⁿ⁾[i_n,f],
//     a rank-length dot product per cell; sub-blocks batch the two
//     innermost modes into one mat.FibersMatMulAdd call per slab, written
//     straight into the result.
//   - TopK — the k highest-scoring entities in one mode against a fixed
//     entity in every other mode: the whole mode scored by one
//     mat.FibersMatMulAdd call, then one scan feeding a bounded partial
//     sort, never a full sort.
//   - NN — nearest neighbors of an entity in factor-row space: the same
//     one-call scoring of the mode against the entity's row, and
//     precomputed squared row norms turn each score into a distance.
//
// The scoring call reads a column-major copy of each factor (F rows of
// I_n values), made once by New beside the row-major view the other
// queries read, so the kernel's vector lanes run across entities. The
// copy costs 8·ΣI_n·F bytes per open Model: as much again as the factors.
//
// Queries are allocation-free at steady state: scratch, including the
// λ-combined row λ_f·A[i,f] a query starts from and the scores of a
// scanned mode, lives in pooled workspaces (sync.Pool), and result slices
// are caller-supplied append targets. The Model is safe for concurrent
// use.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
)

// Config tunes a Model. It is empty: a Model has nothing to tune, and New
// and Open keep the parameter for the callers that pass one.
type Config struct{}

// Scored is one ranked query result. For TopK, Score is the reconstructed
// score (descending); for NN it is the squared Euclidean distance in
// factor-row space (ascending).
type Scored struct {
	// Index is the entity's row index in the queried mode.
	Index int `json:"index"`
	// Score orders the result (see the query's contract for its meaning).
	Score float64 `json:"score"`
}

// Model is an immutable, concurrency-safe query engine over one Kruskal
// model.
type Model struct {
	dims    []int
	rank    int
	lambda  []float64
	factors []*mat.Matrix
	cols    [][]float64 // per-mode column-major factor copy, F rows of I_n, for TopK and NN
	sqnorms [][]float64 // per-mode squared factor-row norms, for NN

	pool sync.Pool
	snap *factorsnap.Snapshot // owned mapping when opened from a file
}

// workspace is the per-query scratch a Model pools. All slices grow on
// demand and are reused across queries, so the steady state allocates
// nothing.
type workspace struct {
	w       []float64 // λ-combined weight vector (rank)
	heapIdx []int     // bounded partial-sort heap: indices
	heapVal []float64 // bounded partial-sort heap: keys
	scores  []float64 // one score per row of the scanned mode
	a, bt   []float64 // block-reconstruct operands: weighted rows, Bᵀ
	odo     []int     // outer-mode odometer for block iteration
}

// New builds a Model over λ and one factor matrix per mode. The factors
// are referenced — they must stay immutable while the Model is in use —
// and copied once more, column-major, for the mode scans. len(lambda)
// must equal the factors' shared column count.
func New(lambda []float64, factors []*mat.Matrix, cfg Config) (*Model, error) {
	if len(factors) == 0 {
		return nil, errors.New("serve: no factor matrices")
	}
	rank := factors[0].Cols
	if len(lambda) != rank {
		return nil, fmt.Errorf("serve: %d lambda weights for rank %d", len(lambda), rank)
	}
	m := &Model{
		dims:    make([]int, len(factors)),
		rank:    rank,
		lambda:  lambda,
		factors: factors,
		cols:    make([][]float64, len(factors)),
		sqnorms: make([][]float64, len(factors)),
	}
	for n, f := range factors {
		if f.Cols != rank {
			return nil, fmt.Errorf("serve: factor %d has %d cols, want %d", n, f.Cols, rank)
		}
		m.dims[n] = f.Rows
		sq := make([]float64, f.Rows)
		cols := make([]float64, rank*f.Rows)
		for i := 0; i < f.Rows; i++ {
			s := 0.0
			for c, v := range f.Row(i) {
				s += v * v
				cols[c*f.Rows+i] = v
			}
			sq[i] = s
		}
		m.sqnorms[n] = sq
		m.cols[n] = cols
	}
	m.pool.New = func() any {
		return &workspace{w: make([]float64, rank)}
	}
	return m, nil
}

// Open maps the factorsnap file at path and builds a Model over its
// zero-copy factor views. Close releases the mapping.
func Open(path string, cfg Config) (*Model, error) {
	snap, err := factorsnap.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := New(snap.Lambda, snap.Factors, cfg)
	if err != nil {
		snap.Close()
		return nil, err
	}
	m.snap = snap
	return m, nil
}

// Close releases the underlying snapshot mapping, if any. The Model must
// not be used afterwards.
func (m *Model) Close() error {
	if m.snap == nil {
		return nil
	}
	s := m.snap
	m.snap = nil
	return s.Close()
}

// Modes returns the number of tensor modes.
func (m *Model) Modes() int { return len(m.dims) }

// Rank returns the number of rank-one components.
func (m *Model) Rank() int { return m.rank }

// Dims returns a copy of the mode sizes.
func (m *Model) Dims() []int {
	out := make([]int, len(m.dims))
	copy(out, m.dims)
	return out
}

// checkCoords validates one index per mode, skipping the mode equal to
// skip (pass -1 to validate all).
func (m *Model) checkCoords(at []int, skip int) error {
	if len(at) != len(m.dims) {
		return fmt.Errorf("serve: %d coordinates for %d modes", len(at), len(m.dims))
	}
	for n, i := range at {
		if n == skip {
			continue
		}
		if i < 0 || i >= m.dims[n] {
			return fmt.Errorf("serve: mode-%d index %d out of range [0,%d)", n, i, m.dims[n])
		}
	}
	return nil
}

// weights sets w[f] = λ_f·Π_n A⁽ⁿ⁾[at_n,f] over the modes n < len(at)
// other than skip (-1 skips none), multiplying the rows into λ in mode
// order: the first product is the λ-combined row λ_f·A[i,f].
func (m *Model) weights(w []float64, at []int, skip int) {
	copy(w, m.lambda)
	for n, i := range at {
		if n == skip {
			continue
		}
		row := m.factors[n].Row(i)
		for f := range w {
			w[f] *= row[f]
		}
	}
}

// Reconstruct returns the model's value at one cell, X̂[at] =
// Σ_f λ_f Π_n A⁽ⁿ⁾[at_n, f]. at supplies one index per mode.
func (m *Model) Reconstruct(at []int) (float64, error) {
	if err := m.checkCoords(at, -1); err != nil {
		return 0, err
	}
	ws := m.pool.Get().(*workspace)
	m.weights(ws.w, at, -1)
	s := 0.0
	for _, v := range ws.w {
		s += v
	}
	m.pool.Put(ws)
	return s, nil
}

// ReconstructBlock fills dst (reused when its capacity suffices) with the
// dense sub-block lo ≤ i < hi, laid out row-major with the last mode
// fastest. The two innermost modes are batched into one
// mat.FibersMatMulAdd call per outer-index combination, accumulating into
// the zeroed slab of dst; outer modes iterate an odometer.
func (m *Model) ReconstructBlock(lo, hi []int, dst []float64) ([]float64, error) {
	N := len(m.dims)
	if len(lo) != N || len(hi) != N {
		return nil, fmt.Errorf("serve: block bounds have %d/%d entries for %d modes", len(lo), len(hi), N)
	}
	vol := 1
	for n := 0; n < N; n++ {
		if lo[n] < 0 || hi[n] > m.dims[n] || lo[n] >= hi[n] {
			return nil, fmt.Errorf("serve: mode-%d range [%d,%d) invalid for dim %d", n, lo[n], hi[n], m.dims[n])
		}
		vol *= hi[n] - lo[n]
	}
	if cap(dst) < vol {
		dst = make([]float64, vol)
	}
	dst = dst[:vol]

	ws := m.pool.Get().(*workspace)
	defer m.pool.Put(ws)

	if N == 1 {
		for i := lo[0]; i < hi[0]; i++ {
			s := 0.0
			for f, v := range m.factors[0].Row(i) {
				s += m.lambda[f] * v
			}
			dst[i-lo[0]] = s
		}
		return dst, nil
	}

	// For each outer-index combo with combined weight w, the slab is
	// (A⁽ᴺ⁻²⁾[loA:hiA] ⊙ w) · Bᵀ where B = A⁽ᴺ⁻¹⁾[loB:hiB]: the weighted
	// rows are ra fibers of length rank against the rank×rb panel Bᵀ,
	// staged once per call. Each cell's sum runs front to back over f from
	// zero, the chain a zeroed GEMM's per-k accumulation makes.
	ra := hi[N-2] - lo[N-2]
	rb := hi[N-1] - lo[N-1]
	bt := grow(&ws.bt, m.rank*rb)
	fb := m.factors[N-1]
	for j := 0; j < rb; j++ {
		row := fb.Row(lo[N-1] + j)
		for f := 0; f < m.rank; f++ {
			bt[f*rb+j] = row[f]
		}
	}
	a := grow(&ws.a, ra*m.rank)
	fa := m.factors[N-2]
	clear(dst)

	if cap(ws.odo) < N {
		ws.odo = make([]int, N)
	}
	odo := ws.odo[:N]
	copy(odo, lo)
	w := ws.w
	out := 0
	for {
		// Combined weight over λ and the outer modes at the current odometer.
		m.weights(w, odo[:N-2], -1)
		for i := 0; i < ra; i++ {
			row := fa.Row(lo[N-2] + i)
			ar := a[i*m.rank : (i+1)*m.rank]
			for f := range ar {
				ar[f] = row[f] * w[f]
			}
		}
		mat.FibersMatMulAdd(dst[out:out+ra*rb], bt, a, m.rank, rb)
		out += ra * rb

		// Advance the outer odometer (modes 0..N-3), last of them fastest.
		n := N - 3
		for ; n >= 0; n-- {
			odo[n]++
			if odo[n] < hi[n] {
				break
			}
			odo[n] = lo[n]
		}
		if n < 0 {
			break
		}
	}
	return dst, nil
}

// TopK appends to dst the k entities of the target mode with the highest
// reconstructed scores against the fixed entities in at (one index per
// mode; at[mode] is ignored), ordered by descending score. Passing a dst
// with capacity ≥ k keeps the call allocation-free. k is clamped to the
// mode's size.
func (m *Model) TopK(mode int, at []int, k int, dst []Scored) ([]Scored, error) {
	if mode < 0 || mode >= len(m.dims) {
		return nil, fmt.Errorf("serve: mode %d out of range [0,%d)", mode, len(m.dims))
	}
	if err := m.checkCoords(at, mode); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	if k > m.dims[mode] {
		k = m.dims[mode]
	}

	ws := m.pool.Get().(*workspace)
	defer m.pool.Put(ws)
	m.weights(ws.w, at, mode) // a single-mode model scores against λ alone
	s := m.score(ws, mode, ws.w)
	ws.resetHeap(k)
	root := math.NaN()
	for j, v := range s {
		if !(v <= root) {
			root = ws.heapInsert(j, v, k)
		}
	}
	return ws.drainDescending(dst), nil
}

// score returns the scores of every row j of the mode against w in the
// workspace: s[j] = Σ_f A[j,f]·w[f], each a front-to-back chain from zero
// (the kernel's accumulator starts at +0 and the zeroed s adds nothing).
func (m *Model) score(ws *workspace, mode int, w []float64) []float64 {
	s := grow(&ws.scores, m.dims[mode])
	clear(s)
	mat.FibersMatMulAdd(s, m.cols[mode], w, m.rank, len(s))
	return s
}

// NN appends to dst the k nearest neighbors of entity index in the given
// mode, by squared Euclidean distance between factor rows (ascending; the
// query entity itself is excluded). Passing a dst with capacity ≥ k keeps
// the call allocation-free. k is clamped to the remaining entity count.
func (m *Model) NN(mode, index, k int, dst []Scored) ([]Scored, error) {
	if mode < 0 || mode >= len(m.dims) {
		return nil, fmt.Errorf("serve: mode %d out of range [0,%d)", mode, len(m.dims))
	}
	if index < 0 || index >= m.dims[mode] {
		return nil, fmt.Errorf("serve: mode-%d index %d out of range [0,%d)", mode, index, m.dims[mode])
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	if k > m.dims[mode]-1 {
		k = m.dims[mode] - 1
	}
	if k == 0 {
		return dst[:0], nil
	}

	ws := m.pool.Get().(*workspace)
	defer m.pool.Put(ws)
	s := m.score(ws, mode, m.factors[mode].Row(index))

	// Keep the k smallest distances by heaping on the negated distance:
	// the shared bounded heap retains the k largest keys. The scan skips
	// the query row by running the rows before it and the rows after it.
	sq, sqi := m.sqnorms[mode][:len(s)], m.sqnorms[mode][index]
	ws.resetHeap(k)
	root := math.NaN()
	for _, r := range [2][2]int{{0, index}, {index + 1, len(s)}} {
		for j := r[0]; j < r[1]; j++ {
			d := sqi + sq[j] - 2*s[j]
			if d < 0 {
				d = 0 // rounding can push an exact-duplicate row slightly negative
			}
			if !(-d <= root) {
				root = ws.heapInsert(j, -d, k)
			}
		}
	}
	dst = ws.drainDescending(dst)
	for i := range dst {
		dst[i].Score = -dst[i].Score
	}
	return dst, nil
}

// grow resizes a workspace slice to n values, reusing its backing array
// when capacity allows.
func grow(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// resetHeap prepares the workspace's bounded min-heap for up to k entries.
func (ws *workspace) resetHeap(k int) {
	if cap(ws.heapIdx) < k {
		ws.heapIdx = make([]int, 0, k)
		ws.heapVal = make([]float64, 0, k)
	}
	ws.heapIdx = ws.heapIdx[:0]
	ws.heapVal = ws.heapVal[:0]
}

// heapInsert adds (idx, val) to the bounded heap of the k largest values:
// to a heap with room, or in place of a full heap's root, sifting down. It
// returns the root a later value must not be ≤ to go in: the heap's
// minimum once it holds k entries, and until then NaN, which no value is
// ≤. A scan keeps that root in a local and offers candidates in
// ascending index, so a tie loses to the row already in and most of a
// long scan is one compare per row.
func (ws *workspace) heapInsert(idx int, val float64, k int) float64 {
	h := len(ws.heapVal)
	if h < k {
		ws.heapIdx = append(ws.heapIdx, idx)
		ws.heapVal = append(ws.heapVal, val)
		// Sift up.
		i := h
		for i > 0 {
			p := (i - 1) / 2
			if ws.heapVal[p] <= ws.heapVal[i] {
				break
			}
			ws.heapVal[p], ws.heapVal[i] = ws.heapVal[i], ws.heapVal[p]
			ws.heapIdx[p], ws.heapIdx[i] = ws.heapIdx[i], ws.heapIdx[p]
			i = p
		}
		if len(ws.heapVal) < k {
			return math.NaN()
		}
		return ws.heapVal[0]
	}
	ws.heapVal[0], ws.heapIdx[0] = val, idx
	ws.siftDown(0)
	return ws.heapVal[0]
}

// siftDown restores the min-heap property from position i.
func (ws *workspace) siftDown(i int) {
	n := len(ws.heapVal)
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && ws.heapVal[l] < ws.heapVal[min] {
			min = l
		}
		if r < n && ws.heapVal[r] < ws.heapVal[min] {
			min = r
		}
		if min == i {
			return
		}
		ws.heapVal[min], ws.heapVal[i] = ws.heapVal[i], ws.heapVal[min]
		ws.heapIdx[min], ws.heapIdx[i] = ws.heapIdx[i], ws.heapIdx[min]
		i = min
	}
}

// drainDescending empties the heap into dst (reset to length zero first)
// ordered by descending value. The heap arrays are consumed in place:
// popping the min repeatedly fills dst back to front.
func (ws *workspace) drainDescending(dst []Scored) []Scored {
	n := len(ws.heapVal)
	if cap(dst) < n {
		dst = make([]Scored, n)
	}
	dst = dst[:n]
	for size := n; size > 0; size-- {
		dst[size-1] = Scored{Index: ws.heapIdx[0], Score: ws.heapVal[0]}
		ws.heapVal[0] = ws.heapVal[size-1]
		ws.heapIdx[0] = ws.heapIdx[size-1]
		ws.heapVal = ws.heapVal[:size-1]
		ws.heapIdx = ws.heapIdx[:size-1]
		ws.siftDown(0)
	}
	return dst
}
