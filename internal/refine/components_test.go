package refine

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
)

// explicitSurrogateFit recomputes the surrogate fit by materializing every
// block model — the slow reference for components.SurrogateFit.
func explicitSurrogateFit(p1 *phase1.Result, parts map[int]*mat.Matrix) float64 {
	p := p1.Pattern
	var err2, norm2 float64
	vec := make([]int, p.NModes())
	for id := 0; id < p.NumBlocks(); id++ {
		p.Unlinear(id, vec)
		// Surrogate data: [[U_l]] materialized.
		uk := cpals.NewKTensor(p1.Sub[id]).Full()
		// Model: [[A(h)_(l_h)]].
		factors := make([]*mat.Matrix, p.NModes())
		for h, kh := range vec {
			factors[h] = parts[h*1000+kh]
		}
		model := cpals.NewKTensor(factors).Full()
		diff := uk.Clone()
		diff.SubInPlace(model)
		err2 += diff.Norm() * diff.Norm()
		norm2 += uk.Norm() * uk.Norm()
	}
	return 1 - math.Sqrt(err2)/math.Sqrt(norm2)
}

// packSlab packs per-block U(i)_l, shaped like a, the way a store does.
func packSlab(t *testing.T, a *mat.Matrix, slabU map[int]*mat.Matrix) *mat.Matrix {
	t.Helper()
	slab, err := blockstore.PackSlab(&blockstore.Unit{A: a, U: slabU})
	if err != nil {
		t.Fatal(err)
	}
	return slab
}

// TestSurrogateFitMatchesExplicit holds the Gram-sum model term to
// materialized block models, on a cube and on an uneven grid whose parts
// differ in height within and across modes: the factoring needs every
// block of the grid, one per combination of parts.
func TestSurrogateFitMatchesExplicit(t *testing.T) {
	for _, p := range []*grid.Pattern{
		grid.UniformCube(3, 6, 2),
		grid.MustNew([]int{7, 9, 5}, []int{3, 4, 2}),
	} {
		rng := rand.New(rand.NewSource(10))
		x := tensor.RandomDense(rng, p.Dims...)
		src, err := phase1.NewDenseSource(x, p)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := phase1.Run(src, phase1.Options{Rank: 2, MaxIters: 20, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Random A parts installed into fresh components.
		comps := newComponents(p1)
		parts := map[int]*mat.Matrix{}
		for mode := 0; mode < 3; mode++ {
			for part := 0; part < p.K[mode]; part++ {
				_, rows := p.ModeRange(mode, part)
				a := mat.Random(rows, 2, rng)
				parts[mode*1000+part] = a
				slabU := map[int]*mat.Matrix{}
				for _, id := range p.Slab(mode, part) {
					slabU[id] = p1.Sub[id][mode]
				}
				comps.setA(mode, part, a, packSlab(t, a, slabU))
			}
		}
		got := comps.SurrogateFit()
		want := explicitSurrogateFit(p1, parts)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v in %v parts: SurrogateFit = %g, explicit = %g", p.Dims, p.K, got, want)
		}
	}
}

func TestSurrogateFitPerfectModel(t *testing.T) {
	// If A parts equal the sub-factors of a tensor whose blocks all share
	// one decomposition, the surrogate fit of a single-block grid is 1.
	rng := rand.New(rand.NewSource(11))
	x := lowRank(rng, 2, 6, 6, 6)
	p := grid.UniformCube(3, 6, 1) // one block
	src, _ := phase1.NewDenseSource(x, p)
	p1, err := phase1.Run(src, phase1.Options{Rank: 2, MaxIters: 200, Tol: 1e-12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	comps := newComponents(p1)
	for mode := 0; mode < 3; mode++ {
		comps.setA(mode, 0, p1.Sub[0][mode], p1.Sub[0][mode])
	}
	if fit := comps.SurrogateFit(); math.Abs(fit-1) > 1e-9 {
		t.Fatalf("perfect-model surrogate fit = %g", fit)
	}
}

func TestSurrogateFitZeroSurrogate(t *testing.T) {
	p := grid.UniformCube(3, 4, 2)
	p1 := &phase1.Result{Pattern: p, Rank: 2}
	p1.Sub = make([][]*mat.Matrix, p.NumBlocks())
	p1.Fits = make([]float64, p.NumBlocks())
	for id := range p1.Sub {
		p1.Sub[id] = []*mat.Matrix{mat.New(2, 2), mat.New(2, 2), mat.New(2, 2)}
	}
	comps := newComponents(p1)
	if fit := comps.SurrogateFit(); fit != 1 {
		t.Fatalf("zero-surrogate fit = %g, want 1", fit)
	}
}
