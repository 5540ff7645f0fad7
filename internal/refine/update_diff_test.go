package refine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
)

// sameBits fails unless got and want agree element for element on
// math.Float64bits — no tolerance: the batched update is the oracle's
// arithmetic with the loops moved, not an approximation of it.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", what, len(got), len(want))
	}
	for i, g := range got {
		if math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%g), oracle %x (%g)", what, i, math.Float64bits(g), g, math.Float64bits(want[i]), want[i])
		}
	}
}

// TestBatchedUpdateMatchesPerBlockOracle drives Engine.update on a unit of
// every rank, partition height and slab width in the grid below and compares
// what it leaves behind — T and S before the solve, P and Q after — with
// the rule written out naively: Γ_l by filling with ones and multiplying, T
// by one MulAddInto per block, P by one TMulInto per block, and S as the
// Hadamard product of the other modes' Grams, each summed part by part in
// part order from mat.Gram of the current partitions. Heights above 256
// rows cross TMulInto's panel boundary; F = 1, 3 and 13 leave columns to
// the kernels' scalar tails. The comparison is on bits, and holds on the
// vector kernels and under -tags purego alike. The paper's per-block S
// (one Hadamard term per slab block) sums in another order, so it is held
// to 1e-12 of S's largest entry, and to the bit where the slab has one
// block.
func TestBatchedUpdateMatchesPerBlockOracle(t *testing.T) {
	for _, f := range []int{1, 3, 4, 8, 13, 16} {
		for _, rows := range []int{1, 7, 32, 256, 257, 600} {
			for _, k := range []int{1, 2, 4, 16} {
				t.Run(fmt.Sprintf("F=%d/rows=%d/L=%d", f, rows, k*k), func(t *testing.T) {
					batchedVsPerBlock(t, f, rows, k)
				})
			}
		}
	}
}

// updateEngine builds an engine whose mode 0 is one partition of the given
// height, so unit ⟨0,0⟩'s slab is the whole grid: L = k² blocks. It returns
// the engine and that unit.
func updateEngine(t *testing.T, f, rows, k int) (*Engine, *blockstore.Unit) {
	t.Helper()
	p := grid.MustNew([]int{rows, 2 * k, k}, []int{1, k, k})
	rng := rand.New(rand.NewSource(int64(1000*f + 10*rows + k)))
	p1 := &phase1.Result{Pattern: p, Rank: f, Sub: make([][]*mat.Matrix, p.NumBlocks())}
	for id := range p1.Sub {
		p1.Sub[id] = []*mat.Matrix{mat.RandomNormal(rows, f, rng), mat.RandomNormal(2, f, rng), mat.RandomNormal(1, f, rng)}
	}
	e, err := New(Config{Phase1: p1, Store: blockstore.NewMemStore(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.mgr.Close() })
	u, err := e.cfg.Store.Get(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e, u
}

// TestUpdateAllocatesOnlyTheNewA: once its scratch exists, an update
// allocates what mat.New(rows, F) does for the new A(i)_(ki) and nothing
// else — no slab id list, no block vector. The partition is one reduction
// panel high (Phase 2's usual shape); taller ones add the panel kernels'
// parallel dispatch.
func TestUpdateAllocatesOnlyTheNewA(t *testing.T) {
	const f, rows, k = 8, 32, 4
	e, u := updateEngine(t, f, rows, k)
	e.update(u)
	var sink *mat.Matrix
	newA := testing.AllocsPerRun(20, func() { sink = mat.New(rows, f) })
	if got := testing.AllocsPerRun(20, func() { e.update(u) }); got > newA {
		t.Fatalf("update allocates %v times, the new A alone %v", got, newA)
	}
	_ = sink
}

func batchedVsPerBlock(t *testing.T, f, rows, k int) {
	e, u := updateEngine(t, f, rows, k)
	p := e.pattern
	sub := e.cfg.Phase1.Sub // the aligned blocks the engine works on

	// The oracles read the other modes' components before the update.
	wantT, wantS, perBlockS := mat.New(rows, f), mat.New(f, f), mat.New(f, f)
	wantS.Fill(1)
	for h := 1; h < 3; h++ {
		gram := mat.New(f, f)
		for _, a := range e.curA[h] {
			gram.AddInPlace(mat.Gram(a))
		}
		wantS.HadamardInPlace(gram)
	}
	g, term, vec := mat.New(f, f), mat.New(f, f), make([]int, 3)
	for _, id := range p.Slab(0, 0) {
		p.Unlinear(id, vec)
		g.Fill(1)
		term.Fill(1)
		for h := 1; h < 3; h++ {
			g.HadamardInPlace(e.comps.p[id][h])
			term.HadamardInPlace(e.comps.q[h][vec[h]])
		}
		mat.MulAddInto(wantT, sub[id][0], g)
		perBlockS.AddInPlace(term)
	}

	e.update(u)
	sameBits(t, "T", e.scratchMTTKRP[rows].Data, wantT.Data)
	sameBits(t, "S", e.scratchS.Data, wantS.Data)
	if k == 1 {
		sameBits(t, "S against the per-block sum", e.scratchS.Data, perBlockS.Data)
	} else {
		diff := e.scratchS.Clone()
		diff.SubInPlace(perBlockS)
		if d, scale := diff.MaxAbs(), perBlockS.MaxAbs(); d > 1e-12*scale {
			t.Fatalf("S differs from the per-block sum by %g, %g of its largest entry", d, d/scale)
		}
	}
	sameBits(t, "Q", e.comps.q[0][0].Data, mat.Gram(u.A).Data)
	for _, id := range p.Slab(0, 0) {
		sameBits(t, fmt.Sprintf("P of block %d", id), e.comps.p[id][0].Data, mat.TMul(sub[id][0], u.A).Data)
	}
}
