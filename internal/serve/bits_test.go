package serve

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
)

// The tests in this file hold every query answer to the bits of the
// straightforward formulation: one row at a time from the row-major
// factors, each offered to the heap on its own, for TopK and NN; one
// zeroed mat.MulInto and a copy per block slab; and a separately computed
// λ-combined row for cells. Run them under -tags purego too: the mode
// scans and the block path run a kernel with a vector body and a Go one.

// dupModel is testModel with rows of the first mode duplicated (row j
// copies row j/2 for odd j), so top-k scores and nn distances tie.
func dupModel(t *testing.T, seed int64, rank int, dims ...int) (*Model, []float64, []*mat.Matrix) {
	t.Helper()
	_, lambda, factors := testModel(t, seed, rank, dims...)
	f0 := factors[0]
	for j := 1; j < f0.Rows; j += 2 {
		copy(f0.Row(j), f0.Row(j/2))
	}
	mdl, err := New(lambda, factors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return mdl, lambda, factors
}

// refCombined is the λ-combined row as the row cache computed it: a fresh
// slice of λ_f·A[i,f].
func refCombined(lambda []float64, factors []*mat.Matrix, mode, i int) []float64 {
	src := factors[mode].Row(i)
	row := make([]float64, len(lambda))
	for f := range row {
		row[f] = lambda[f] * src[f]
	}
	return row
}

// refOffer is the one-candidate heap offer: (idx, val) is rejected when
// the heap is full and val ≤ its root, and inserted otherwise.
func refOffer(ws *workspace, idx int, val float64, k int) {
	if len(ws.heapVal) == k && val <= ws.heapVal[0] {
		return
	}
	ws.heapInsert(idx, val, k)
}

// refTopK scores one row at a time, each a serial chain, and ranks the
// scores through the Model's own bounded heap.
func refTopK(lambda []float64, factors []*mat.Matrix, mode int, at []int, k int) []Scored {
	w := make([]float64, len(lambda))
	seeded := false
	for n := range factors {
		if n == mode {
			continue
		}
		if !seeded {
			copy(w, refCombined(lambda, factors, n, at[n]))
			seeded = true
			continue
		}
		row := factors[n].Row(at[n])
		for f := range w {
			w[f] *= row[f]
		}
	}
	if !seeded {
		copy(w, lambda)
	}
	if k > factors[mode].Rows {
		k = factors[mode].Rows
	}
	ws := &workspace{}
	ws.resetHeap(k)
	for j := 0; j < factors[mode].Rows; j++ {
		s := 0.0
		for f, v := range factors[mode].Row(j) {
			s += v * w[f]
		}
		refOffer(ws, j, s, k)
	}
	return ws.drainDescending(nil)
}

// refNN is the one-row-at-a-time nearest-neighbor scan.
func refNN(factors []*mat.Matrix, mode, index, k int) []Scored {
	f := factors[mode]
	if k > f.Rows-1 {
		k = f.Rows - 1
	}
	sqn := func(row []float64) float64 {
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		return s
	}
	q := f.Row(index)
	ws := &workspace{}
	ws.resetHeap(k)
	for j := 0; j < f.Rows; j++ {
		if j == index {
			continue
		}
		dot := 0.0
		for i, v := range f.Row(j) {
			dot += v * q[i]
		}
		d := sqn(q) + sqn(f.Row(j)) - 2*dot
		if d < 0 {
			d = 0
		}
		refOffer(ws, j, -d, k)
	}
	out := ws.drainDescending(nil)
	for i := range out {
		out[i].Score = -out[i].Score
	}
	return out
}

// sameScored fails unless got and want hold the same indices in the same
// order with bit-identical scores.
func sameScored(t *testing.T, what string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d = {%d %x}, want {%d %x}", what, i,
				got[i].Index, math.Float64bits(got[i].Score), want[i].Index, math.Float64bits(want[i].Score))
		}
	}
}

// TestTopKAndNNMatchOneRowScan: the one-call mode scans return what the
// one-row scan returns, bit for bit and tie for tie, at every row count
// from 1 to 9 and at 13 and 29 — below the kernel's four-row vector, in
// its column tail and its Go tail, across an eight-row block and a four —
// at ranks 1, 3, 8 and 13, with the nn query row at every index (0 and
// I_n−1 among them), and for k up to past the mode's size.
func TestTopKAndNNMatchOneRowScan(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 29} {
		for _, rank := range []int{1, 3, 8, 13} {
			mdl, lambda, factors := dupModel(t, int64(100*d+rank), rank, d, 3, 2)
			for _, k := range []int{1, 2, d - 1, d, d + 3} {
				if k <= 0 {
					continue
				}
				for mode := 0; mode < 3; mode++ {
					at := []int{d / 2, 1, 1}
					got, err := mdl.TopK(mode, at, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("d=%d rank=%d k=%d TopK(mode %d)", d, rank, k, mode),
						got, refTopK(lambda, factors, mode, at, k))
				}
				for index := 0; index < d; index++ {
					got, err := mdl.NN(0, index, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("d=%d rank=%d k=%d NN(0, %d)", d, rank, k, index),
						got, refNN(factors, 0, index, k))
				}
			}
		}
	}
	// A single-mode model scores against λ alone.
	mdl, lambda, factors := dupModel(t, 7, 5, 11)
	got, err := mdl.TopK(0, []int{-1}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "single-mode TopK", got, refTopK(lambda, factors, 0, []int{-1}, 4))
}

// TestSnapshotScansMatchOneRowScan: a Model opened from a snapshot makes
// its column copy from the file's rows (a mapping where the platform maps
// snapshots) and answers TopK and NN bit for bit as the one-row scan over
// the same rows, the nn query row at both ends of the mode included.
func TestSnapshotScansMatchOneRowScan(t *testing.T) {
	_, lambda, factors := dupModel(t, 41, 13, 37, 5, 6)
	path := filepath.Join(t.TempDir(), "factors.snap")
	if err := factorsnap.Write(path, lambda, factors, nil); err != nil {
		t.Fatal(err)
	}
	mdl, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mdl.Close()
	for mode := 0; mode < 3; mode++ {
		at := []int{4, 3, 2}
		got, err := mdl.TopK(mode, at, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, fmt.Sprintf("snapshot TopK(mode %d)", mode), got, refTopK(lambda, factors, mode, at, 6))
		last := factors[mode].Rows - 1
		for _, index := range []int{0, last / 2, last} {
			got, err := mdl.NN(mode, index, 6, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, fmt.Sprintf("snapshot NN(%d, %d)", mode, index), got, refNN(factors, mode, index, 6))
		}
	}
}

// refBlock is ReconstructBlock as one zeroed mat.MulInto per slab and a
// copy into the result.
func refBlock(lambda []float64, factors []*mat.Matrix, lo, hi []int) []float64 {
	N := len(factors)
	rank := len(lambda)
	vol := 1
	for n := range lo {
		vol *= hi[n] - lo[n]
	}
	out := make([]float64, 0, vol)
	if N == 1 {
		for i := lo[0]; i < hi[0]; i++ {
			s := 0.0
			for _, v := range refCombined(lambda, factors, 0, i) {
				s += v
			}
			out = append(out, s)
		}
		return out
	}
	ra, rb := hi[N-2]-lo[N-2], hi[N-1]-lo[N-1]
	bt := mat.New(rank, rb)
	for j := 0; j < rb; j++ {
		for f := 0; f < rank; f++ {
			bt.Set(f, j, factors[N-1].At(lo[N-1]+j, f))
		}
	}
	a, c := mat.New(ra, rank), mat.New(ra, rb)
	odo := append([]int(nil), lo...)
	for {
		w := append([]float64(nil), lambda...)
		for n := 0; n < N-2; n++ {
			for f := range w {
				w[f] *= factors[n].At(odo[n], f)
			}
		}
		for i := 0; i < ra; i++ {
			for f := 0; f < rank; f++ {
				a.Set(i, f, factors[N-2].At(lo[N-2]+i, f)*w[f])
			}
		}
		mat.MulInto(c, a, bt)
		out = append(out, c.Data...)
		n := N - 3
		for ; n >= 0; n-- {
			if odo[n]++; odo[n] < hi[n] {
				break
			}
			odo[n] = lo[n]
		}
		if n < 0 {
			return out
		}
	}
}

// TestReconstructBlockMatchesMulInto: blocks equal the MulInto-then-copy
// formulation bit for bit at ranks 1–9 (every F mod 4 tail of the fiber
// kernel) and odd and even last-mode widths, into a nil dst and into a
// reused one full of stale values; cells equal the λ-combined-row
// formulation bit for bit.
func TestReconstructBlockMatchesMulInto(t *testing.T) {
	shapes := []struct {
		dims   []int
		lo, hi []int
	}{
		{[]int{9}, []int{2}, []int{7}},
		{[]int{8, 9}, []int{1, 0}, []int{6, 9}},
		{[]int{7, 6, 9}, []int{1, 2, 1}, []int{6, 6, 8}},
		{[]int{5, 6, 7}, []int{0, 0, 2}, []int{5, 6, 3}},
		{[]int{4, 3, 5, 6}, []int{1, 0, 1, 1}, []int{3, 3, 4, 6}},
	}
	reused := make([]float64, 0, 512)
	for rank := 1; rank <= 9; rank++ {
		for si, s := range shapes {
			mdl, lambda, factors := testModel(t, int64(31*rank+si), rank, s.dims...)
			want := refBlock(lambda, factors, s.lo, s.hi)
			reused = reused[:cap(reused)]
			for i := range reused {
				reused[i] = math.NaN()
			}
			for _, dst := range [][]float64{nil, reused} {
				got, err := mdl.ReconstructBlock(s.lo, s.hi, dst)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("rank %d shape %d: %d cells, want %d", rank, si, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("rank %d shape %d (dst cap %d): cell %d = %x, want %x",
							rank, si, cap(dst), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}

			at := append([]int(nil), s.lo...)
			w := refCombined(lambda, factors, 0, at[0])
			for n := 1; n < len(at); n++ {
				for f := range w {
					w[f] *= factors[n].At(at[n], f)
				}
			}
			cell := 0.0
			for _, v := range w {
				cell += v
			}
			got, err := mdl.Reconstruct(at)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(cell) {
				t.Fatalf("rank %d shape %d: Reconstruct(%v) = %x, want %x", rank, si, at, math.Float64bits(got), math.Float64bits(cell))
			}
		}
	}
}
