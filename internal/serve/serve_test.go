package serve

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
)

// testModel builds a deterministic random model.
func testModel(t *testing.T, seed int64, rank int, dims ...int) (*Model, []float64, []*mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lambda := make([]float64, rank)
	for f := range lambda {
		lambda[f] = rng.Float64()*2 - 0.5
	}
	factors := make([]*mat.Matrix, len(dims))
	for n, d := range dims {
		m := mat.New(d, rank)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		factors[n] = m
	}
	mdl, err := New(lambda, factors, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return mdl, lambda, factors
}

// naiveCell is the reference reconstruction, written independently of the
// Model implementation.
func naiveCell(lambda []float64, factors []*mat.Matrix, at []int) float64 {
	s := 0.0
	for f := range lambda {
		v := lambda[f]
		for n, m := range factors {
			v *= m.At(at[n], f)
		}
		s += v
	}
	return s
}

func close12(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestReconstructMatchesNaive(t *testing.T) {
	mdl, lambda, factors := testModel(t, 1, 4, 7, 6, 5)
	for i := 0; i < 7; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 5; k++ {
				at := []int{i, j, k}
				got, err := mdl.Reconstruct(at)
				if err != nil {
					t.Fatalf("Reconstruct(%v): %v", at, err)
				}
				if want := naiveCell(lambda, factors, at); !close12(got, want) {
					t.Fatalf("Reconstruct(%v) = %g, want %g", at, got, want)
				}
			}
		}
	}
}

func TestReconstructBlockMatchesCells(t *testing.T) {
	cases := []struct {
		rank   int
		dims   []int
		lo, hi []int
	}{
		{3, []int{9}, []int{2}, []int{8}},
		{4, []int{8, 7}, []int{1, 0}, []int{8, 5}},
		{4, []int{7, 6, 5}, []int{1, 2, 0}, []int{6, 6, 4}},
		{2, []int{4, 5, 3, 6}, []int{0, 1, 0, 2}, []int{4, 4, 3, 6}},
	}
	for ci, tc := range cases {
		mdl, lambda, factors := testModel(t, int64(10+ci), tc.rank, tc.dims...)
		got, err := mdl.ReconstructBlock(tc.lo, tc.hi, nil)
		if err != nil {
			t.Fatalf("case %d: ReconstructBlock: %v", ci, err)
		}
		// Walk the block row-major, last mode fastest, and compare each
		// cell against the naive reference.
		at := append([]int(nil), tc.lo...)
		for pos := 0; ; pos++ {
			want := naiveCell(lambda, factors, at)
			if !close12(got[pos], want) {
				t.Fatalf("case %d: block[%d] (at %v) = %g, want %g", ci, pos, at, got[pos], want)
			}
			n := len(at) - 1
			for ; n >= 0; n-- {
				at[n]++
				if at[n] < tc.hi[n] {
					break
				}
				at[n] = tc.lo[n]
			}
			if n < 0 {
				if pos+1 != len(got) {
					t.Fatalf("case %d: walked %d cells, block has %d", ci, pos+1, len(got))
				}
				break
			}
		}
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	mdl, lambda, factors := testModel(t, 3, 5, 40, 30, 20)
	for mode := 0; mode < 3; mode++ {
		at := []int{5, 7, 9}
		got, err := mdl.TopK(mode, at, 8, nil)
		if err != nil {
			t.Fatalf("TopK(mode %d): %v", mode, err)
		}
		// Brute force: score every entity, full sort.
		type sc struct {
			j int
			s float64
		}
		all := make([]sc, mdl.dims[mode])
		for j := range all {
			cellAt := append([]int(nil), at...)
			cellAt[mode] = j
			all[j] = sc{j, naiveCell(lambda, factors, cellAt)}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].s > all[b].s })
		if len(got) != 8 {
			t.Fatalf("TopK returned %d results, want 8", len(got))
		}
		for i, g := range got {
			if !close12(g.Score, all[i].s) {
				t.Fatalf("mode %d rank %d: score %g, want %g (index %d vs %d)", mode, i, g.Score, all[i].s, g.Index, all[i].j)
			}
		}
	}
}

func TestTopKSingleMode(t *testing.T) {
	mdl, lambda, factors := testModel(t, 4, 3, 15)
	got, err := mdl.TopK(0, []int{-1}, 3, nil)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	best := math.Inf(-1)
	for j := 0; j < 15; j++ {
		if s := naiveCell(lambda, factors, []int{j}); s > best {
			best = s
		}
	}
	if !close12(got[0].Score, best) {
		t.Fatalf("top score %g, want %g", got[0].Score, best)
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	mdl, _, factors := testModel(t, 5, 4, 25, 18)
	for mode := 0; mode < 2; mode++ {
		idx := 3
		got, err := mdl.NN(mode, idx, 6, nil)
		if err != nil {
			t.Fatalf("NN(mode %d): %v", mode, err)
		}
		q := factors[mode].Row(idx)
		type sc struct {
			j int
			d float64
		}
		var all []sc
		for j := 0; j < factors[mode].Rows; j++ {
			if j == idx {
				continue
			}
			row := factors[mode].Row(j)
			d := 0.0
			for f := range row {
				d += (row[f] - q[f]) * (row[f] - q[f])
			}
			all = append(all, sc{j, d})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		if len(got) != 6 {
			t.Fatalf("NN returned %d results, want 6", len(got))
		}
		for i, g := range got {
			if g.Index == idx {
				t.Fatalf("NN returned the query entity itself at rank %d", i)
			}
			if !close12(g.Score, all[i].d) {
				t.Fatalf("mode %d rank %d: distance %g, want %g (index %d vs %d)", mode, i, g.Score, all[i].d, g.Index, all[i].j)
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	mdl, _, _ := testModel(t, 6, 2, 5, 4)
	if _, err := mdl.Reconstruct([]int{1}); err == nil {
		t.Fatal("Reconstruct with wrong arity succeeded")
	}
	if _, err := mdl.Reconstruct([]int{5, 0}); err == nil {
		t.Fatal("Reconstruct out of range succeeded")
	}
	if _, err := mdl.ReconstructBlock([]int{0, 0}, []int{6, 2}, nil); err == nil {
		t.Fatal("ReconstructBlock out of range succeeded")
	}
	if _, err := mdl.ReconstructBlock([]int{2, 0}, []int{2, 2}, nil); err == nil {
		t.Fatal("ReconstructBlock with empty range succeeded")
	}
	if _, err := mdl.TopK(2, []int{0, 0}, 3, nil); err == nil {
		t.Fatal("TopK with bad mode succeeded")
	}
	if _, err := mdl.TopK(0, []int{-1, 0}, 0, nil); err == nil {
		t.Fatal("TopK with k=0 succeeded")
	}
	if _, err := mdl.NN(0, 9, 3, nil); err == nil {
		t.Fatal("NN out of range succeeded")
	}
}

func TestOpenServesSnapshot(t *testing.T) {
	ref, lambda, factors := testModel(t, 8, 3, 10, 9, 8)
	path := filepath.Join(t.TempDir(), "factors.snap")
	if err := factorsnap.Write(path, lambda, factors, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	mdl, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mdl.Close()
	for trial := 0; trial < 50; trial++ {
		at := []int{trial % 10, (trial * 3) % 9, (trial * 7) % 8}
		got, err := mdl.Reconstruct(at)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Reconstruct(at)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("snapshot-backed Reconstruct(%v) = %x, want bit-identical %x", at, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestQueriesAllocationFree pins the acceptance criterion: with
// caller-reused result slices, the point-read, block, top-k, and
// nearest-neighbor paths allocate nothing at steady state.
func TestQueriesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc contract is gated by the non-race run and BENCH_serve.json")
	}
	mdl, _, _ := testModel(t, 9, 8, 32, 32, 32)
	at := []int{3, 4, 5}
	dst := make([]Scored, 0, 16)
	block := make([]float64, 0, 64)

	// Warm the pool and the workspace scratch.
	for i := 0; i < 8; i++ {
		if _, err := mdl.Reconstruct(at); err != nil {
			t.Fatal(err)
		}
		var err error
		if dst, err = mdl.TopK(0, at, 10, dst); err != nil {
			t.Fatal(err)
		}
		if dst, err = mdl.NN(1, 4, 10, dst); err != nil {
			t.Fatal(err)
		}
		if block, err = mdl.ReconstructBlock([]int{3, 4, 5}, []int{5, 8, 9}, block); err != nil {
			t.Fatal(err)
		}
	}

	checks := []struct {
		name string
		fn   func()
	}{
		{"Reconstruct", func() { mdl.Reconstruct(at) }},
		{"TopK", func() { dst, _ = mdl.TopK(0, at, 10, dst) }},
		{"NN", func() { dst, _ = mdl.NN(1, 4, 10, dst) }},
		{"ReconstructBlock", func() { block, _ = mdl.ReconstructBlock([]int{3, 4, 5}, []int{5, 8, 9}, block) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg > 0.05 {
			t.Errorf("%s allocates %.2f objects/op at steady state, want 0", c.name, avg)
		}
	}

	// A sweep over more mode-0 rows than any row cache would hold: every
	// read starts from a row it has not seen in a while.
	const sweepRows = 5000
	wide, _, _ := testModel(t, 10, 8, sweepRows, 4, 4)
	wide.Reconstruct([]int{0, 1, 2})
	sweep := func() {
		for i := 0; i < sweepRows; i++ {
			wide.Reconstruct([]int{i, 1, 2})
		}
	}
	if avg := testing.AllocsPerRun(3, sweep); avg > 0 {
		t.Errorf("a %d-row point-read sweep allocates %.0f objects, want 0", sweepRows, avg)
	}
}
