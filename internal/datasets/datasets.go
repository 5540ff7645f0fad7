// Package datasets generates the evaluation workloads of the paper's §VIII:
// shape- and density-faithful synthetic stand-ins for the four real data
// sets (Epinions, Ciao, Enron, Face — the originals are not redistributable
// here, see DESIGN.md) and the billion-scale dense tensors of the strong-
// configuration experiments, scaled by a configurable factor.
//
// The generators reproduce the structural properties the paper's results
// depend on: the sparse datasets have skewed (power-law-like) coordinate
// marginals so block densities vary strongly across the grid — the source
// of the accuracy variability in Figure 13 — while Face is a dense, smooth,
// approximately low-rank image stack whose block-centric and mode-centric
// accuracies coincide.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Spec describes a generated dataset.
type Spec struct {
	Name    string
	Schema  string
	Dims    []int
	Density float64
}

// String renders the spec like the paper's dataset table.
func (s Spec) String() string {
	return fmt.Sprintf("%s %v %s density=%.2g", s.Name, s.Dims, s.Schema, s.Density)
}

// Paper-published dataset shapes.
var (
	EpinionsSpec = Spec{Name: "Epinions", Schema: "⟨user,item,category⟩", Dims: []int{170, 1000, 18}, Density: 2.4e-4}
	CiaoSpec     = Spec{Name: "Ciao", Schema: "⟨user,item,category⟩", Dims: []int{167, 967, 18}, Density: 2.2e-4}
	EnronSpec    = Spec{Name: "Enron", Schema: "⟨time,from,to⟩", Dims: []int{5632, 184, 184}, Density: 1.8e-4}
	FaceSpec     = Spec{Name: "Face", Schema: "⟨x,y,image⟩", Dims: []int{480, 640, 100}, Density: 1.0}
)

// zipfIndex draws a skewed coordinate in [0, n): small indexes are hot,
// with skew s > 0 (s≈1 gives strong head concentration).
func zipfIndex(rng *rand.Rand, n int, s float64) int {
	u := rng.Float64()
	idx := int(float64(n) * math.Pow(u, 1+s))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// ratingTensor generates a ⟨user, item, category⟩ tensor: items belong to a
// fixed category (as in Epinions/Ciao, where the category is a function of
// the item), users and items follow skewed popularity, and values are
// ratings in {1..5}.
func ratingTensor(rng *rand.Rand, spec Spec) *tensor.COO {
	users, items, cats := spec.Dims[0], spec.Dims[1], spec.Dims[2]
	out := tensor.NewCOO(users, items, cats)
	itemCat := make([]int, items)
	for i := range itemCat {
		itemCat[i] = rng.Intn(cats)
	}
	total := float64(users) * float64(items) * float64(cats)
	target := int(spec.Density * total)
	idx := make([]int, 3)
	for k := 0; k < target; k++ {
		idx[0] = zipfIndex(rng, users, 0.8)
		idx[1] = zipfIndex(rng, items, 1.0)
		idx[2] = itemCat[idx[1]]
		out.Append(idx, float64(rng.Intn(5)+1))
	}
	out.Canonicalize()
	return out
}

// Epinions generates the Epinions stand-in at published shape and density.
func Epinions(rng *rand.Rand) *tensor.COO { return ratingTensor(rng, EpinionsSpec) }

// Ciao generates the Ciao stand-in at published shape and density.
func Ciao(rng *rand.Rand) *tensor.COO { return ratingTensor(rng, CiaoSpec) }

// Enron generates the ⟨time, from, to⟩ email stand-in: bursty time windows
// and heavy-hitter senders/receivers, values are message counts.
func Enron(rng *rand.Rand) *tensor.COO {
	spec := EnronSpec
	times, from, to := spec.Dims[0], spec.Dims[1], spec.Dims[2]
	out := tensor.NewCOO(times, from, to)
	total := float64(times) * float64(from) * float64(to)
	target := int(spec.Density * total)
	// A handful of bursts (organizational events) concentrate traffic.
	nBursts := 12
	burstCenter := make([]int, nBursts)
	for b := range burstCenter {
		burstCenter[b] = rng.Intn(times)
	}
	idx := make([]int, 3)
	for k := 0; k < target; k++ {
		if rng.Float64() < 0.5 {
			c := burstCenter[rng.Intn(nBursts)]
			t := c + int(rng.NormFloat64()*float64(times)/100)
			if t < 0 {
				t = 0
			}
			if t >= times {
				t = times - 1
			}
			idx[0] = t
		} else {
			idx[0] = rng.Intn(times)
		}
		idx[1] = zipfIndex(rng, from, 1.2)
		idx[2] = zipfIndex(rng, to, 1.0)
		out.Append(idx, float64(rng.Intn(4)+1))
	}
	out.Canonicalize()
	return out
}

// Face generates the dense ⟨x, y, image⟩ face-database stand-in at
// 1/scale of the published resolution (scale ≥ 1; scale 10 gives
// 48×64×10). Images are sums of smooth spatial basis functions with
// per-image weights plus mild noise — dense, approximately low-rank data
// like illumination-varied face images.
func Face(rng *rand.Rand, scale int) *tensor.Dense {
	if scale < 1 {
		scale = 1
	}
	h := FaceSpec.Dims[0] / scale
	w := FaceSpec.Dims[1] / scale
	n := FaceSpec.Dims[2] / scale
	if h < 2 {
		h = 2
	}
	if w < 2 {
		w = 2
	}
	if n < 2 {
		n = 2
	}
	const rank = 6
	// Smooth spatial bases: products of low-frequency sinusoids.
	bx := make([][]float64, rank)
	by := make([][]float64, rank)
	weights := make([][]float64, rank)
	for r := 0; r < rank; r++ {
		fx := float64(r%3 + 1)
		fy := float64(r/3 + 1)
		phase := rng.Float64() * math.Pi
		bx[r] = make([]float64, h)
		for i := 0; i < h; i++ {
			bx[r][i] = 0.5 + 0.5*math.Sin(fx*math.Pi*float64(i)/float64(h)+phase)
		}
		by[r] = make([]float64, w)
		for j := 0; j < w; j++ {
			by[r][j] = 0.5 + 0.5*math.Cos(fy*math.Pi*float64(j)/float64(w)+phase)
		}
		weights[r] = make([]float64, n)
		for k := 0; k < n; k++ {
			weights[r][k] = 0.2 + rng.Float64()
		}
	}
	out := tensor.NewDense(h, w, n)
	out.Fill(func(idx []int) float64 {
		var v float64
		for r := 0; r < rank; r++ {
			v += bx[r][idx[0]] * by[r][idx[1]] * weights[r][idx[2]]
		}
		return v/float64(rank) + 0.02*rng.Float64()
	})
	return out
}

// DenseUniform generates the billion-scale-style dense tensors of Table I:
// a cube of side dim where each cell is nonzero with probability density,
// with uniform (0,1] values. The paper used sides 500–1500 at density 0.2;
// callers scale the side down per DESIGN.md.
func DenseUniform(rng *rand.Rand, density float64, dims ...int) *tensor.Dense {
	out := tensor.NewDense(dims...)
	for i := range out.Data {
		if rng.Float64() < density {
			out.Data[i] = rng.Float64() + 1e-9
		}
	}
	return out
}

// EnsembleSimulation generates a dense ⟨configuration, parameter, time⟩
// tensor like the scientific ensemble-simulation workloads that motivate
// 2PCP (paper footnote 2): per-configuration smooth response curves.
func EnsembleSimulation(rng *rand.Rand, configs, params, steps int) *tensor.Dense {
	out := tensor.NewDense(configs, params, steps)
	base := make([]float64, params)
	for p := range base {
		base[p] = rng.Float64()*2 + 0.5
	}
	gain := make([]float64, configs)
	for c := range gain {
		gain[c] = 0.5 + rng.Float64()
	}
	out.Fill(func(idx []int) float64 {
		c, p, t := idx[0], idx[1], idx[2]
		phase := float64(c) / float64(configs)
		return gain[c]*base[p]*math.Exp(-float64(t)/float64(steps)) +
			0.1*math.Sin(2*math.Pi*(float64(t)/float64(steps)+phase)) +
			0.01*rng.Float64()
	})
	return out
}

// LowMLRankSpec configures the lowmlrank synthetic generator: a dense
// tensor of multilinear rank R per mode plus optional relative Gaussian
// noise — a random R×R×...×R Tucker core multiplied by per-mode
// orthonormal factors. These are the honest low-multilinear-rank inputs
// the Phase-0 compress-then-refine accelerator targets — the compressed
// core captures (1−noise)-ish of the energy, so CP on the core matches CP
// on the tensor. The optional knobs default to off.
type LowMLRankSpec struct {
	// R is the multilinear rank per mode (capped at the mode size).
	R int
	// Noise is the relative Gaussian noise level (0 disables).
	Noise float64
	// Diag selects a superdiagonal core (weights 1+|N(0,1)|) instead of a
	// dense random one, making the CP rank exactly R — the input then has
	// a clean rank-R CP ground truth instead of just low multilinear rank.
	Diag bool
	// Collinearity c in [0,1) draws unit-norm factor columns with pairwise
	// inner product c instead of orthonormal panels. Collinear factors are
	// the classic ALS "swamp" inputs: the CP optimum is still (generically)
	// unique, but cold-started ALS needs many sweeps to crawl there, which
	// is exactly the regime where compress-then-refine pays off.
	Collinearity float64
}

// Generate materializes the spec as a dense tensor.
func (s LowMLRankSpec) Generate(rng *rand.Rand, dims ...int) *tensor.Dense {
	core, ms := s.Components(rng, dims...)
	out := tensor.TTMChain(core, ms)
	if s.Noise > 0 {
		scale := s.Noise * out.Norm() / math.Sqrt(float64(len(out.Data)))
		for i := range out.Data {
			out.Data[i] += scale * rng.NormFloat64()
		}
	}
	return out
}

// Components draws the Tucker core and per-mode factor panels of the
// spec without materializing the tensor, so callers (tensorgen's tiled
// writer) can stream arbitrarily large instances one tile at a time:
// a tile is just TTMChain(core, factors restricted to the tile's rows).
func (s LowMLRankSpec) Components(rng *rand.Rand, dims ...int) (*tensor.Dense, []*mat.Matrix) {
	coreDims := make([]int, len(dims))
	for k, d := range dims {
		coreDims[k] = s.R
		if d < s.R {
			coreDims[k] = d
		}
	}
	core := tensor.NewDense(coreDims...)
	if s.Diag {
		side := coreDims[0]
		for _, d := range coreDims {
			if d < side {
				side = d
			}
		}
		idx := make([]int, len(coreDims))
		for i := 0; i < side; i++ {
			for k := range idx {
				idx[k] = i
			}
			core.Set(1+math.Abs(rng.NormFloat64()), idx...)
		}
	} else {
		for i := range core.Data {
			core.Data[i] = rng.NormFloat64()
		}
	}
	ms := make([]*mat.Matrix, len(dims))
	for k, d := range dims {
		ms[k] = factorPanel(rng, d, coreDims[k], s.Collinearity)
	}
	return core, ms
}

// ModelNorm returns the exact Frobenius norm of TTMChain(core, ms)
// without materializing it: ‖X‖² = ⟨core ×₁ G₁ ×₂ G₂ ⋯, core⟩ with
// Gₖ = FₖᵀFₖ, which stays core-sized. Streaming generation needs this
// up front to scale relative noise before the first tile is written.
func ModelNorm(core *tensor.Dense, ms []*mat.Matrix) float64 {
	gs := make([]*mat.Matrix, len(ms))
	for k, f := range ms {
		gs[k] = mat.Gram(f)
	}
	y := tensor.TTMChain(core, gs)
	var norm2 float64
	for i, v := range y.Data {
		norm2 += v * core.Data[i]
	}
	if norm2 < 0 {
		norm2 = 0
	}
	return math.Sqrt(norm2)
}

// factorPanel draws a d×r factor panel: orthonormal for c = 0, else
// unit-norm columns a_q = √c·u + √(1−c)·v_q over an orthonormal set
// {u, v_1..v_r}, so every pair of columns has inner product exactly c.
func factorPanel(rng *rand.Rand, d, r int, c float64) *mat.Matrix {
	if c <= 0 || r >= d {
		return mat.QRThin(mat.RandomNormal(d, r, rng))
	}
	basis := mat.QRThin(mat.RandomNormal(d, r+1, rng))
	out := mat.New(d, r)
	su, sv := math.Sqrt(c), math.Sqrt(1-c)
	for q := 0; q < r; q++ {
		for i := 0; i < d; i++ {
			out.Set(i, q, su*basis.At(i, 0)+sv*basis.At(i, q+1))
		}
	}
	return out
}
