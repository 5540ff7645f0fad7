package cpals

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// fallbackCounter is LeastSquares that counts the systems V it is handed
// which do not factor, the ones mat.RightSolveSPDInto answers through its
// pseudo-inverse fallback.
type fallbackCounter struct {
	LeastSquares
	fallbacks *int
}

func (s fallbackCounter) Solve(a, m, v *mat.Matrix, sc *SolverScratch) {
	if _, err := mat.Cholesky(v); err != nil {
		*s.fallbacks++
	}
	s.LeastSquares.Solve(a, m, v, sc)
}

// degenerateBlocks are the inputs whose Gram systems lose rank in ALS: an
// all-zero block, a rank above the block side (and above the product of
// any two sides, which bounds the rank of every V), a block built from
// collinear factors, and a constant block.
func degenerateBlocks() []struct {
	name string
	x    *tensor.Dense
	rank int
} {
	rng := rand.New(rand.NewSource(31))
	collinear := make([]*mat.Matrix, 3)
	for k := range collinear {
		col := mat.Random(6, 1, rng)
		collinear[k] = mat.New(6, 3)
		for i := 0; i < 6; i++ {
			for c := 0; c < 3; c++ {
				collinear[k].Set(i, c, col.At(i, 0)*float64(c+1))
			}
		}
	}
	constant := tensor.NewDense(6, 6, 6)
	for i := range constant.Data {
		constant.Data[i] = 1.5
	}
	return []struct {
		name string
		x    *tensor.Dense
		rank int
	}{
		{"all-zero", tensor.NewDense(6, 6, 6), 3},
		{"rank-above-side", tensor.RandomDense(rng, 2, 2, 2), 5},
		{"collinear", NewKTensor(collinear).Full(), 3},
		{"constant", constant, 3},
	}
}

// TestDegenerateBlocksTakeTheFallback: each degenerate block reaches the
// solve's pseudo-inverse fallback and still ends with finite factors,
// weights and fit.
func TestDegenerateBlocksTakeTheFallback(t *testing.T) {
	for _, c := range degenerateBlocks() {
		fallbacks := 0
		kt, info, err := Decompose(c.x, Options{Rank: c.rank, MaxIters: 10, Tol: 1e-12,
			Rng: rand.New(rand.NewSource(1)), Solver: fallbackCounter{fallbacks: &fallbacks}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fallbacks == 0 {
			t.Errorf("%s: no Gram system took the fallback", c.name)
		}
		if math.IsNaN(info.Fit) || math.IsInf(info.Fit, 0) {
			t.Errorf("%s: fit %v", c.name, info.Fit)
		}
		for _, v := range kt.Lambda {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: λ %v", c.name, kt.Lambda)
			}
		}
		for m, a := range kt.Factors {
			for _, v := range a.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: factor %d holds %v", c.name, m, v)
				}
			}
		}
	}
}
