package refine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// alignEngine builds a Phase-2 engine over p1 that runs a fixed number of
// virtual iterations.
func alignEngine(t *testing.T, p1 *phase1.Result, solver cpals.Solver) *Engine {
	t.Helper()
	e, err := New(Config{
		Phase1: p1, Store: blockstore.NewMemStore(),
		Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		MaxVirtualIters: 6, Tol: math.Inf(-1), Seed: 5, Solver: solver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scrambleBlocks returns a copy of p1 whose blocks, all but block 0, have
// their columns permuted, pairs of modes sign-flipped and the modes
// rescaled by powers of two whose product is 1 — so every [[U_l]] is the
// same to the bit, and only the arbitrary choices Phase 1 makes per block
// differ.
func scrambleBlocks(p1 *phase1.Result, rng *rand.Rand) *phase1.Result {
	out := *p1
	out.Sub = make([][]*mat.Matrix, len(p1.Sub))
	out.Sub[0] = p1.Sub[0]
	n, f := p1.Pattern.NModes(), p1.Rank
	for id := 1; id < len(p1.Sub); id++ {
		perm := rng.Perm(f)
		scale := make([][]float64, n)
		for h := range scale {
			scale[h] = make([]float64, f)
		}
		for c := 0; c < f; c++ {
			e0, e1 := rng.Intn(7)-3, rng.Intn(7)-3
			scale[0][c], scale[1][c], scale[2][c] = math.Ldexp(1, e0), math.Ldexp(1, e1), math.Ldexp(1, -e0-e1)
			if rng.Intn(2) == 1 {
				h1 := rng.Intn(n)
				h2 := (h1 + 1 + rng.Intn(n-1)) % n
				scale[h1][c], scale[h2][c] = -scale[h1][c], -scale[h2][c]
			}
		}
		out.Sub[id] = make([]*mat.Matrix, n)
		for h, u := range p1.Sub[id] {
			v := mat.New(u.Rows, f)
			for i := 0; i < u.Rows; i++ {
				for c := 0; c < f; c++ {
					v.Set(i, c, u.At(i, perm[c])*scale[h][c])
				}
			}
			out.Sub[id][h] = v
		}
	}
	return &out
}

// TestAlignmentUndoesScrambledBlocks: Phase 2 from blocks whose columns
// were deliberately permuted, sign-flipped and rescaled starts from the
// same surrogate fit and ends at the same factors as Phase 2 from the
// blocks as Phase 1 left them — alignment recovers the same start either
// way — and the caller's result is never written.
func TestAlignmentUndoesScrambledBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := lowRank(rng, 3, 12, 9, 8)
	p := grid.MustNew([]int{12, 9, 8}, []int{3, 3, 2})
	p1 := runPhase1(t, x, p, 3)
	scrambled := scrambleBlocks(p1, rng)
	before := scrambled.Sub[5][1].Clone()

	plain, mixed := alignEngine(t, p1, nil), alignEngine(t, scrambled, nil)
	if d := math.Abs(plain.prog.PrevFit - mixed.prog.PrevFit); d > 1e-12 {
		t.Fatalf("seeded surrogate fit %.15f from scrambled blocks, %.15f from Phase 1's (diff %g)",
			mixed.prog.PrevFit, plain.prog.PrevFit, d)
	}
	for id := range p1.Sub {
		for h := range p1.Sub[id] {
			if !mixed.cfg.Phase1.Sub[id][h].EqualApprox(plain.cfg.Phase1.Sub[id][h], 1e-12) {
				t.Fatalf("block %d mode %d aligns differently once scrambled", id, h)
			}
		}
	}
	if !scrambled.Sub[5][1].Equal(before) {
		t.Fatal("alignment wrote the caller's Phase-1 result")
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := mixed.Run()
	if err != nil {
		t.Fatal(err)
	}
	for m := range want.Factors {
		if !got.Factors[m].EqualApprox(want.Factors[m], 1e-12) {
			t.Fatalf("mode %d: factors from scrambled blocks differ from Phase 1's", m)
		}
	}
}

// TestAlignedStartIsTheModel: when every Phase-1 block recovers an exact
// rank-3 tensor, the aligned blocks describe one model, so the slab-mean
// seed is that model and Phase 2 starts at surrogate fit 1. Seeding each
// partition from the first block of its slab, unaligned, started this grid
// at −0.37.
func TestAlignedStartIsTheModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	factors := make([]*mat.Matrix, 3)
	for k := range factors {
		factors[k] = mat.RandomNormal(16, 3, rng)
	}
	x := cpals.NewKTensor(factors).Full()
	src, err := phase1.NewDenseSource(x, grid.UniformCube(3, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 3, MaxIters: 500, Tol: 1e-12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for id, fit := range p1.Fits {
		if fit < 1-1e-6 {
			t.Fatalf("block %d: Phase-1 fit %g, the premise needs exact blocks", id, fit)
		}
	}
	if fit := alignEngine(t, p1, nil).prog.PrevFit; fit < 1-1e-6 {
		t.Fatalf("aligned seed starts at surrogate fit %g, want 1", fit)
	}
}

// TestAlignmentSkipsDeadBlocksAndColumns: an all-zero block and a column
// that is zero in one mode are never moved and never a reference, and
// nothing turns NaN.
func TestAlignmentSkipsDeadBlocksAndColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randomSub := func() []*mat.Matrix {
		return []*mat.Matrix{mat.RandomNormal(2, 3, rng), mat.RandomNormal(4, 3, rng), mat.RandomNormal(4, 3, rng)}
	}
	finite := func(t *testing.T, r *phase1.Result) {
		t.Helper()
		for id, sub := range r.Sub {
			for h, u := range sub {
				for _, v := range u.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("block %d mode %d holds %g", id, h, v)
					}
				}
			}
		}
	}

	t.Run("zero block", func(t *testing.T) {
		// Blocks 0, 1, 2 in a row along mode 0; block 1 is all zero, so
		// block 2 has no usable neighbour and starts a walk of its own.
		p := grid.MustNew([]int{6, 4, 4}, []int{3, 1, 1})
		p1 := &phase1.Result{Pattern: p, Rank: 3, Sub: [][]*mat.Matrix{
			randomSub(), {mat.New(2, 3), mat.New(4, 3), mat.New(4, 3)}, randomSub(),
		}}
		got := alignBlocks(p1, false)
		finite(t, got)
		for id := 1; id <= 2; id++ {
			for h := range p1.Sub[id] {
				if got.Sub[id][h] != p1.Sub[id][h] {
					t.Fatalf("block %d mode %d was moved", id, h)
				}
			}
		}
	})

	t.Run("zero column", func(t *testing.T) {
		// Block 0's column 0 is zero in mode 1. Block 1 holds block 0's
		// columns rotated: (1, 2, 0), so its own dead column is 2.
		p := grid.MustNew([]int{4, 4, 4}, []int{2, 1, 1})
		x := randomSub()
		for i := 0; i < 4; i++ {
			x[1].Set(i, 0, 0)
		}
		y := make([]*mat.Matrix, 3)
		for h, u := range x {
			y[h] = mat.New(u.Rows, 3)
			for i := 0; i < u.Rows; i++ {
				for c, src := range []int{1, 2, 0} {
					y[h].Set(i, c, u.At(i, src))
				}
			}
		}
		y[0] = mat.RandomNormal(2, 3, rng) // the mode the blocks differ in
		p1 := &phase1.Result{Pattern: p, Rank: 3, Sub: [][]*mat.Matrix{x, y}}
		got := alignBlocks(p1, false)
		finite(t, got)
		col := func(m *mat.Matrix, c int) []float64 {
			v := make([]float64, m.Rows)
			for i := range v {
				v[i] = m.At(i, c)
			}
			return v
		}
		for h := range y {
			a := got.Sub[1][h]
			// The dead column stays put, untouched.
			for i, v := range col(y[h], 2) {
				if math.Float64bits(a.At(i, 2)) != math.Float64bits(v) {
					t.Fatalf("mode %d: dead column 2 moved or scaled", h)
				}
			}
			// Column 1 is the only live column of block 0 that block 1's
			// dead column leaves free: block 1's copy of it lands there.
			// Column 0 is block 0's dead column, no reference: the last live
			// column lands there unscaled.
			for i, v := range col(y[h], 1) {
				if math.Float64bits(a.At(i, 0)) != math.Float64bits(v) {
					t.Fatalf("mode %d: column 0 is not block 1's column 1, unscaled", h)
				}
			}
		}
		for _, h := range []int{1, 2} {
			for i, v := range col(x[h], 1) {
				if math.Abs(got.Sub[1][h].At(i, 1)-v) > 1e-12 {
					t.Fatalf("mode %d: block 1's column 1 does not match block 0's", h)
				}
			}
		}
	})
}

// TestAlignmentNonnegNeverFlips: under nonneg, alignment permutes and
// scales by positive factors only, so no entry of a nonnegative Phase-1
// result, nor of the seed built from it, becomes negative — and a column
// whose cosines are negative keeps its signs.
func TestAlignmentNonnegNeverFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := lowRank(rng, 3, 12, 9, 8)
	p := grid.MustNew([]int{12, 9, 8}, []int{3, 3, 2})
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 3, MaxIters: 40, Seed: 42, Solver: cpals.Nonnegative{}})
	if err != nil {
		t.Fatal(err)
	}
	e := alignEngine(t, p1, cpals.Nonnegative{})
	for id, sub := range e.cfg.Phase1.Sub {
		for h, u := range sub {
			for _, v := range u.Data {
				if v < 0 {
					t.Fatalf("block %d mode %d: aligned entry %g", id, h, v)
				}
			}
		}
	}
	for mode, parts := range e.curA {
		for part, a := range parts {
			for _, v := range a.Data {
				if v < 0 {
					t.Fatalf("seed A(%d)_(%d) holds %g", mode, part, v)
				}
			}
		}
	}

	// Two blocks along mode 0, the second a copy of the first with every
	// column's modes 1 and 2 negated: least squares flips them back,
	// nonneg leaves every sign as it was.
	q := grid.MustNew([]int{4, 4, 4}, []int{2, 1, 1})
	a := []*mat.Matrix{mat.Random(2, 3, rng), mat.Random(4, 3, rng), mat.Random(4, 3, rng)}
	b := []*mat.Matrix{mat.Random(2, 3, rng), a[1].Clone(), a[2].Clone()}
	b[1].Scale(-1)
	b[2].Scale(-1)
	pair := &phase1.Result{Pattern: q, Rank: 3, Sub: [][]*mat.Matrix{a, b}}
	for _, nonneg := range []bool{false, true} {
		got := alignBlocks(pair, nonneg).Sub[1]
		for h := 1; h <= 2; h++ {
			for i, v := range got[h].Data {
				if flipped := (v < 0) != (b[h].Data[i] < 0); flipped == nonneg {
					t.Fatalf("nonneg=%v, mode %d entry %d: %g from %g", nonneg, h, i, v, b[h].Data[i])
				}
			}
		}
	}
}

// TestOneBlockRunUnchanged: with one block there is nothing to align and
// its slab seeds every partition with a copy of it, so a parts-1 run is the
// same to the bit as before alignment existed. The digest covers the
// surrogate trace and the final factors; it was recorded from the engine
// that seeded each partition from the first block of its slab.
func TestOneBlockRunUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := tensor.RandomDense(rng, 9, 7, 5)
	p := grid.MustNew([]int{9, 7, 5}, []int{1, 1, 1})
	p1 := runPhase1(t, x, p, 3)
	e := alignEngine(t, p1, nil)
	for h, u := range p1.Sub[0] {
		if e.cfg.Phase1.Sub[0][h] != u {
			t.Fatalf("mode %d: the one block was copied or moved", h)
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for _, f := range res.FitTrace {
		binary.Write(sum, binary.LittleEndian, math.Float64bits(f))
	}
	for _, a := range res.Factors {
		for _, v := range a.Data {
			binary.Write(sum, binary.LittleEndian, math.Float64bits(v))
		}
	}
	const want = "155c6c6812c058223dc73822fb9d95b1e02cb9d208615a92424a787cbe46ab67"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("one-block run digest %s, want %s", got, want)
	}
}
