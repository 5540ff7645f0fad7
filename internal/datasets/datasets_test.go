package datasets

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

func TestSpecsMatchPaperTable(t *testing.T) {
	if EpinionsSpec.Dims[0] != 170 || EpinionsSpec.Dims[1] != 1000 || EpinionsSpec.Dims[2] != 18 {
		t.Fatalf("Epinions dims = %v", EpinionsSpec.Dims)
	}
	if CiaoSpec.Dims[0] != 167 || CiaoSpec.Dims[1] != 967 {
		t.Fatalf("Ciao dims = %v", CiaoSpec.Dims)
	}
	if EnronSpec.Dims[0] != 5632 || EnronSpec.Dims[1] != 184 {
		t.Fatalf("Enron dims = %v", EnronSpec.Dims)
	}
	if FaceSpec.Density != 1.0 {
		t.Fatalf("Face density = %g", FaceSpec.Density)
	}
	if EpinionsSpec.String() == "" {
		t.Fatal("Spec.String empty")
	}
}

func checkSparse(t *testing.T, x *tensor.COO, spec Spec) {
	t.Helper()
	for m := range spec.Dims {
		if x.Dims[m] != spec.Dims[m] {
			t.Fatalf("%s dims = %v, want %v", spec.Name, x.Dims, spec.Dims)
		}
	}
	total := 1.0
	for _, d := range spec.Dims {
		total *= float64(d)
	}
	got := float64(x.NNZ()) / total
	if got > spec.Density*1.2 || got < spec.Density*0.3 {
		t.Fatalf("%s density = %g, spec %g", spec.Name, got, spec.Density)
	}
	for _, v := range x.Vals {
		if v <= 0 {
			t.Fatalf("%s has non-positive value", spec.Name)
		}
	}
}

func TestEpinionsShape(t *testing.T) {
	checkSparse(t, Epinions(rand.New(rand.NewSource(1))), EpinionsSpec)
}

func TestCiaoShape(t *testing.T) {
	checkSparse(t, Ciao(rand.New(rand.NewSource(2))), CiaoSpec)
}

func TestEnronShape(t *testing.T) {
	checkSparse(t, Enron(rand.New(rand.NewSource(3))), EnronSpec)
}

func TestRatingCategoriesAreItemDetermined(t *testing.T) {
	x := Epinions(rand.New(rand.NewSource(4)))
	itemCat := map[int]int{}
	for p := 0; p < x.NNZ(); p++ {
		item, cat := x.Indices[1][p], x.Indices[2][p]
		if prev, ok := itemCat[item]; ok && prev != cat {
			t.Fatalf("item %d appears in categories %d and %d", item, prev, cat)
		}
		itemCat[item] = cat
	}
}

func TestSparseBlockDensityVariability(t *testing.T) {
	// The paper (Fig 13 discussion) attributes accuracy variability to
	// strongly varying block densities on sparse data. Verify the skewed
	// generators produce that: over a 2×2×2 grid, the densest block must
	// hold several times more nonzeros than the sparsest.
	x := Enron(rand.New(rand.NewSource(5)))
	p := grid.MustNew(x.Dims, []int{2, 2, 2})
	counts := make([]int, p.NumBlocks())
	for _, vec := range p.Positions() {
		from, size := p.Block(vec)
		counts[p.Linear(vec)] = x.SubTensorCOO(from, size).NNZ()
	}
	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 3*(minC+1) {
		t.Fatalf("block nnz too uniform: min=%d max=%d", minC, maxC)
	}
}

func TestFaceDenseAndLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Face(rng, 10) // 48×64×10
	if x.Dims[0] != 48 || x.Dims[1] != 64 || x.Dims[2] != 10 {
		t.Fatalf("Face dims = %v", x.Dims)
	}
	if float64(x.NNZ()) < 0.999*float64(x.Len()) {
		t.Fatal("Face should be fully dense")
	}
	// Approximately low-rank: rank-8 ALS fit must be high.
	_, info, err := cpals.Decompose(x, cpals.Options{Rank: 8, MaxIters: 40, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fit < 0.95 {
		t.Fatalf("Face rank-8 fit = %g, expected near-low-rank data", info.Fit)
	}
}

func TestFaceScaleClamping(t *testing.T) {
	x := Face(rand.New(rand.NewSource(7)), 1000)
	for _, d := range x.Dims {
		if d < 2 {
			t.Fatalf("Face over-scaled: dims %v", x.Dims)
		}
	}
	if Face(rand.New(rand.NewSource(7)), 0).Dims[0] != 480 {
		t.Fatal("scale<1 should clamp to full size")
	}
}

func TestDenseUniformDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := DenseUniform(rng, 0.2, 30, 30, 30)
	got := float64(x.NNZ()) / float64(x.Len())
	if math.Abs(got-0.2) > 0.03 {
		t.Fatalf("density = %g, want ≈0.2", got)
	}
}

func TestEnsembleSimulationSmooth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := EnsembleSimulation(rng, 12, 8, 20)
	if x.Dims[0] != 12 || x.Dims[1] != 8 || x.Dims[2] != 20 {
		t.Fatalf("dims = %v", x.Dims)
	}
	// Time decay: early timesteps should carry more energy than late ones.
	early := x.SubTensor([]int{0, 0, 0}, []int{12, 8, 5}).Norm()
	late := x.SubTensor([]int{0, 0, 15}, []int{12, 8, 5}).Norm()
	if early <= late {
		t.Fatalf("no decay: early %g vs late %g", early, late)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Epinions(rand.New(rand.NewSource(42)))
	b := Epinions(rand.New(rand.NewSource(42)))
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed produced different datasets")
	}
	for p := range a.Vals {
		if a.Vals[p] != b.Vals[p] || a.Indices[0][p] != b.Indices[0][p] {
			t.Fatal("same seed produced different entries")
		}
	}
}

func TestLowMLRankSpecDiagHasExactCPRank(t *testing.T) {
	// A noiseless superdiagonal core × factor chain is a rank-R Kruskal
	// tensor: the components themselves, with the core weights folded
	// into one factor, must reconstruct it with fit 1. (Cold ALS is NOT
	// used here — odeco tensors trap it in local optima.)
	rng := rand.New(rand.NewSource(11))
	spec := LowMLRankSpec{R: 3, Diag: true}
	core, ms := spec.Components(rng, 14, 12, 10)
	x := tensor.TTMChain(core, ms)
	factors := make([]*mat.Matrix, len(ms))
	for k, f := range ms {
		factors[k] = f.Clone()
	}
	for r := 0; r < 3; r++ {
		w := core.Data[r+r*3+r*3*3] // superdiagonal (r,r,r) in Fortran layout
		if w < 1 {
			t.Fatalf("superdiagonal weight %d = %g, want ≥ 1", r, w)
		}
		for i := 0; i < factors[0].Rows; i++ {
			factors[0].Set(i, r, factors[0].At(i, r)*w)
		}
	}
	// KTensor.Fit's expansion ‖X‖² + ‖X̂‖² − 2⟨X,X̂⟩ cannot resolve a
	// residual below about √ε·‖X‖, so the residual is summed cell by cell.
	full := cpals.NewKTensor(factors).Full()
	var r2 float64
	for i, v := range x.Data {
		d := v - full.Data[i]
		r2 += d * d
	}
	if fit := 1 - math.Sqrt(r2)/x.Norm(); fit < 1-1e-12 {
		t.Fatalf("rank-3 Kruskal reconstruction fit = %g, want 1", fit)
	}
}

func TestLowMLRankSpecCollinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const c = 0.9
	_, ms := LowMLRankSpec{R: 4, Collinearity: c}.Components(rng, 20, 20, 20)
	for mode, f := range ms {
		for p := 0; p < f.Cols; p++ {
			for q := 0; q < f.Cols; q++ {
				var dot float64
				for i := 0; i < f.Rows; i++ {
					dot += f.At(i, p) * f.At(i, q)
				}
				want := c
				if p == q {
					want = 1
				}
				if math.Abs(dot-want) > 1e-10 {
					t.Fatalf("mode %d: ⟨a_%d,a_%d⟩ = %g, want %g", mode, p, q, dot, want)
				}
			}
		}
	}
}

func TestModelNormMatchesMaterialized(t *testing.T) {
	for _, c := range []float64{0, 0.7} {
		rng := rand.New(rand.NewSource(13))
		spec := LowMLRankSpec{R: 4, Collinearity: c}
		core, ms := spec.Components(rng, 15, 11, 9)
		got := ModelNorm(core, ms)
		want := tensor.TTMChain(core, ms).Norm()
		if math.Abs(got-want) > 1e-10*want {
			t.Fatalf("collinearity %g: ModelNorm = %.15g, materialized = %.15g", c, got, want)
		}
	}
}

func TestLowMLRankRelativeNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	spec := LowMLRankSpec{R: 4, Noise: 1e-3}
	clean := LowMLRankSpec{R: 4}.Generate(rand.New(rand.NewSource(14)), 20, 20, 20)
	noisy := spec.Generate(rng, 20, 20, 20)
	diff := 0.0
	for i := range clean.Data {
		d := noisy.Data[i] - clean.Data[i]
		diff += d * d
	}
	rel := math.Sqrt(diff) / clean.Norm()
	if rel < 1e-4 || rel > 1e-2 {
		t.Fatalf("relative noise = %g, want ≈1e-3", rel)
	}
}
