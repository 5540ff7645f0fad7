package twopcp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/cpals"
)

// TestDegenerateInputsFinishFinite runs whole decompositions, Phase 1,
// the alignment and Phase 2, over inputs whose Gram systems lose rank, so
// their solves go through the pseudo-inverse fallback: an all-zero block,
// a rank above the block side, collinear factors and a constant tensor.
// Each must finish with finite factors and a finite fit. A NaN cell must
// instead stop the run with cpals.ErrNonFinite.
func TestDegenerateInputsFinishFinite(t *testing.T) {
	zeroBlock := lowRankDense(3, 2, 12, 12, 12)
	zeroBlock.SetSubTensor(NewDense(6, 6, 6), []int{6, 0, 6})

	rng := rand.New(rand.NewSource(5))
	collinear := make([]*Matrix, 3)
	for k := range collinear {
		col := randomMatrix(rng, 12, 1)
		collinear[k] = &Matrix{Rows: 12, Cols: 3, Data: make([]float64, 36)}
		for i := 0; i < 12; i++ {
			for c := 0; c < 3; c++ {
				collinear[k].Set(i, c, col.At(i, 0)*float64(c+1))
			}
		}
	}
	constant := NewDense(12, 12, 12)
	for i := range constant.Data {
		constant.Data[i] = 1.5
	}
	cases := []struct {
		name  string
		x     *Dense
		rank  int
		parts int
	}{
		{"all-zero block", zeroBlock, 3, 2},
		{"rank above block side", lowRankDense(4, 2, 4, 4, 4), 5, 2},
		{"collinear factors", NewKTensor(collinear).Full(), 3, 2},
		{"constant", constant, 3, 2},
	}
	for _, c := range cases {
		res, err := Decompose(c.x, Options{Rank: c.rank, Partitions: []int{c.parts}, Seed: 3, MaxIters: 20})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.IsNaN(res.Fit) || math.IsInf(res.Fit, 0) {
			t.Errorf("%s: fit %v", c.name, res.Fit)
		}
		for m, a := range res.Model.Factors {
			for _, v := range a.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: factor %d holds %v", c.name, m, v)
				}
			}
		}
	}

	nan := lowRankDense(3, 2, 12, 12, 12)
	nan.Set(math.NaN(), 2, 9, 4)
	if _, err := Decompose(nan, Options{Rank: 2, Partitions: []int{2}, Seed: 3}); !errors.Is(err, cpals.ErrNonFinite) {
		t.Fatalf("NaN cell: err = %v, want cpals.ErrNonFinite", err)
	}
}
