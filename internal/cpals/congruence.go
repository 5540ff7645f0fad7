package cpals

import (
	"fmt"
	"math"
)

// Congruence scores how well the components of a match those of b: for the
// greedy best pairing of components it averages the product over modes of
// the absolute column cosines (1 = identical up to per-mode scaling and
// component permutation; ≈0 = unrelated). Both tensors must share rank and
// dims. This is the standard "factor match score" used to verify that a CP
// algorithm recovered a known ground truth.
func Congruence(a, b *KTensor) float64 {
	if a.Rank() != b.Rank() || a.NModes() != b.NModes() {
		panic(fmt.Sprintf("cpals: Congruence of rank %d/%d, modes %d/%d",
			a.Rank(), b.Rank(), a.NModes(), b.NModes()))
	}
	f := a.Rank()
	an := a.Clone().Normalize()
	bn := b.Clone().Normalize()
	// cos[m][i][j] = |cosine between column i of a's mode-m factor and
	// column j of b's|.
	score := make([][]float64, f)
	for i := range score {
		score[i] = make([]float64, f)
		for j := range score[i] {
			score[i][j] = 1
		}
	}
	for m := 0; m < a.NModes(); m++ {
		fa, fb := an.Factors[m], bn.Factors[m]
		for i := 0; i < f; i++ {
			for j := 0; j < f; j++ {
				var dot float64
				for r := 0; r < fa.Rows; r++ {
					dot += fa.At(r, i) * fb.At(r, j)
				}
				score[i][j] *= math.Abs(dot)
			}
		}
	}
	// Greedy matching on the score matrix.
	usedA := make([]bool, f)
	usedB := make([]bool, f)
	total := 0.0
	for step := 0; step < f; step++ {
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < f; i++ {
			if usedA[i] {
				continue
			}
			for j := 0; j < f; j++ {
				if usedB[j] {
					continue
				}
				if score[i][j] > best {
					bi, bj, best = i, j, score[i][j]
				}
			}
		}
		usedA[bi], usedB[bj] = true, true
		total += best
	}
	return total / float64(f)
}
