package main

import (
	"fmt"
	"math"
)

// oracleTol is how far a served value may sit from the naive
// reconstruction, relative to the magnitude of the terms it sums.
const oracleTol = 1e-9

// kruskal is the naive reference model the query answers are checked
// against: unit weights, one row-major rows×rank factor per mode, read
// back from the factor CSVs the daemon serves. It shares no code with
// the repository's query engine.
type kruskal struct {
	rank    int
	dims    []int
	factors [][]float64
}

func (m *kruskal) row(mode, i int) []float64 {
	return m.factors[mode][i*m.rank : (i+1)*m.rank]
}

// cell returns the model's value at one index per mode, and the sum of
// the absolute terms (the scale rounding errors are relative to).
func (m *kruskal) cell(at []int) (v, scale float64) {
	for f := 0; f < m.rank; f++ {
		term := 1.0
		for mode, i := range at {
			term *= m.factors[mode][i*m.rank+f]
		}
		v += term
		scale += math.Abs(term)
	}
	return v, scale
}

type scored struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// topKScores returns every mode-`mode` entity's score against the fixed
// entities in at, with the rounding scale of each.
func (m *kruskal) topKScores(mode int, at []int) (scores, scales []float64) {
	scores = make([]float64, m.dims[mode])
	scales = make([]float64, m.dims[mode])
	probe := append([]int(nil), at...)
	for i := range scores {
		probe[mode] = i
		scores[i], scales[i] = m.cell(probe)
	}
	return scores, scales
}

// nnDistances returns the squared Euclidean distance from row index to
// every row of the mode's factor, with each distance's rounding scale
// (the two squared norms, which is what an expanded-form engine
// cancels).
func (m *kruskal) nnDistances(mode, index int) (dist, scales []float64) {
	q := m.row(mode, index)
	qn := 0.0
	for _, v := range q {
		qn += v * v
	}
	dist = make([]float64, m.dims[mode])
	scales = make([]float64, m.dims[mode])
	for j := range dist {
		r := m.row(mode, j)
		d, rn := 0.0, 0.0
		for f, v := range r {
			d += (v - q[f]) * (v - q[f])
			rn += v * v
		}
		dist[j], scales[j] = d, qn+rn
	}
	return dist, scales
}

func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= oracleTol*math.Max(scale, math.Abs(want))
}

// checkCell verifies one /query/cell answer.
func (m *kruskal) checkCell(at []int, got float64) error {
	want, scale := m.cell(at)
	if !near(got, want, scale) {
		return fmt.Errorf("cell %v = %.17g, oracle %.17g", at, got, want)
	}
	return nil
}

// checkBlock verifies a /query/block answer: the cells lo ≤ i < hi in
// row-major order, last mode fastest.
func (m *kruskal) checkBlock(lo, hi []int, got []float64) error {
	n := 1
	for k := range lo {
		n *= hi[k] - lo[k]
	}
	if len(got) != n {
		return fmt.Errorf("block %v..%v has %d values, want %d", lo, hi, len(got), n)
	}
	at := append([]int(nil), lo...)
	for _, g := range got {
		if err := m.checkCell(at, g); err != nil {
			return fmt.Errorf("block %v..%v: %w", lo, hi, err)
		}
		for k := len(at) - 1; k >= 0; k-- {
			if at[k]++; at[k] < hi[k] {
				break
			}
			at[k] = lo[k]
		}
	}
	return nil
}

// checkRanking verifies an ordered top-k or nearest-neighbour answer
// against the oracle's score of every candidate: it must have k entries
// with distinct, eligible indices; each entry's score must be the
// oracle's score of that index; and the i-th score must equal the
// oracle's i-th best. Comparing scores rank by rank rather than indices
// keeps exact ties from failing an answer that is as good as the
// oracle's.
func checkRanking(what string, got []scored, scores, scales []float64, k, exclude int, descending bool) error {
	better := func(a, b float64) bool {
		if descending {
			return a > b
		}
		return a < b
	}
	// The oracle's k best candidates, best first, by insertion into a
	// k-long list: k is small and the candidates are thousands.
	var best []int
	for i, s := range scores {
		if i == exclude {
			continue
		}
		if len(best) == k && !better(s, scores[best[k-1]]) {
			continue
		}
		pos := len(best)
		for pos > 0 && better(s, scores[best[pos-1]]) {
			pos--
		}
		if len(best) < k {
			best = append(best, 0)
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = i
	}
	if len(got) != len(best) {
		return fmt.Errorf("%s: %d results, want %d", what, len(got), len(best))
	}
	seen := map[int]bool{}
	for i, g := range got {
		if g.Index < 0 || g.Index >= len(scores) || g.Index == exclude || seen[g.Index] {
			return fmt.Errorf("%s: result %d has bad or repeated index %d", what, i, g.Index)
		}
		seen[g.Index] = true
		if !near(g.Score, scores[g.Index], scales[g.Index]) {
			return fmt.Errorf("%s: result %d (index %d) scores %.17g, oracle %.17g", what, i, g.Index, g.Score, scores[g.Index])
		}
		if want := scores[best[i]]; !near(g.Score, want, scales[best[i]]) {
			return fmt.Errorf("%s: rank %d scores %.17g, oracle's rank %d is %.17g (index %d)", what, i, g.Score, i, want, best[i])
		}
	}
	return nil
}
