package main

import (
	"math"
	"strings"
	"testing"

	"twopcp"
)

// A 2×2×2 rank-2 model small enough to work out by hand:
//
//	A0 = [1 2; 3 4]   A1 = [1 0; 0 1]   A2 = [1 1; 2 3]
//
// X[i,j,k] = A0[i,0]·A1[j,0]·A2[k,0] + A0[i,1]·A1[j,1]·A2[k,1], so with
// j = 0 only the first component survives and with j = 1 only the second:
//
//	X[i,0,k] = A0[i,0]·A2[k,0]    X[i,1,k] = A0[i,1]·A2[k,1]
func handModel() *kruskal {
	return &kruskal{rank: 2, dims: []int{2, 2, 2}, factors: [][]float64{
		{1, 2, 3, 4}, {1, 0, 0, 1}, {1, 1, 2, 3},
	}}
}

func TestOracleCell(t *testing.T) {
	m := handModel()
	for _, c := range []struct {
		at   []int
		want float64
	}{
		{[]int{0, 0, 0}, 1}, {[]int{1, 0, 0}, 3}, {[]int{0, 0, 1}, 2}, {[]int{1, 0, 1}, 6},
		{[]int{0, 1, 0}, 2}, {[]int{1, 1, 0}, 4}, {[]int{0, 1, 1}, 6}, {[]int{1, 1, 1}, 12},
	} {
		if got, _ := m.cell(c.at); got != c.want {
			t.Errorf("cell %v = %g, want %g", c.at, got, c.want)
		}
		if err := m.checkCell(c.at, c.want*(1+1e-12)); err != nil {
			t.Errorf("cell %v: a value within tolerance was rejected: %v", c.at, err)
		}
		if err := m.checkCell(c.at, c.want*(1+1e-6)); err == nil {
			t.Errorf("cell %v: a value 1e-6 off was accepted", c.at)
		}
	}
}

func TestOracleBlock(t *testing.T) {
	m := handModel()
	// The whole tensor, row-major with the last mode fastest:
	// (0,0,0) (0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,0) (1,1,1).
	whole := []float64{1, 2, 2, 6, 3, 6, 4, 12}
	if err := m.checkBlock([]int{0, 0, 0}, []int{2, 2, 2}, whole); err != nil {
		t.Errorf("whole tensor rejected: %v", err)
	}
	// A sub-block: i = 1, j in {0,1}, k = 1.
	if err := m.checkBlock([]int{1, 0, 1}, []int{2, 2, 2}, []float64{6, 12}); err != nil {
		t.Errorf("sub-block rejected: %v", err)
	}
	// Mode-0-fastest order is wrong, and so is a short answer.
	if err := m.checkBlock([]int{0, 0, 0}, []int{2, 2, 2}, []float64{1, 3, 2, 4, 2, 6, 6, 12}); err == nil {
		t.Error("a block in the wrong order was accepted")
	}
	if err := m.checkBlock([]int{0, 0, 0}, []int{2, 2, 2}, whole[:7]); err == nil {
		t.Error("a short block was accepted")
	}
}

func TestOracleTopK(t *testing.T) {
	m := handModel()
	// Mode 0 against (j,k) = (1,1): scores A0[i,1]·3 = 6, 12.
	scores, scales := m.topKScores(0, []int{0, 1, 1})
	if scores[0] != 6 || scores[1] != 12 {
		t.Fatalf("scores = %v, want [6 12]", scores)
	}
	good := []scored{{1, 12}, {0, 6}}
	if err := checkRanking("topk", good, scores, scales, 2, -1, true); err != nil {
		t.Errorf("correct ranking rejected: %v", err)
	}
	for name, bad := range map[string][]scored{
		"wrong order":    {{0, 6}, {1, 12}},
		"wrong score":    {{1, 12.1}, {0, 6}},
		"repeated index": {{1, 12}, {1, 12}},
		"too few":        {{1, 12}},
		"bad index":      {{1, 12}, {2, 6}},
	} {
		if err := checkRanking("topk", bad, scores, scales, 2, -1, true); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
	// k larger than the mode is clamped to its size.
	if err := checkRanking("topk", good, scores, scales, 10, -1, true); err != nil {
		t.Errorf("clamped k rejected: %v", err)
	}
	// Exact ties may come back in either order.
	tied, ones := []float64{5, 5, 1}, []float64{5, 5, 1}
	for _, order := range [][]scored{{{0, 5}, {1, 5}}, {{1, 5}, {0, 5}}} {
		if err := checkRanking("topk", order, tied, ones, 2, -1, true); err != nil {
			t.Errorf("tie order %v rejected: %v", order, err)
		}
	}
	if err := checkRanking("topk", []scored{{0, 5}, {2, 1}}, tied, ones, 2, -1, true); err == nil {
		t.Error("a ranking that skips a tied better entity was accepted")
	}
}

func TestOracleNN(t *testing.T) {
	// Three mode-0 rows: (0,0), (3,4), (1,0). From row 0 the squared
	// distances are 25 and 1; the query row itself is excluded.
	m := &kruskal{rank: 2, dims: []int{3}, factors: [][]float64{{0, 0, 3, 4, 1, 0}}}
	dist, scales := m.nnDistances(0, 0)
	if dist[1] != 25 || dist[2] != 1 {
		t.Fatalf("distances = %v, want [0 25 1]", dist)
	}
	if err := checkRanking("nn", []scored{{2, 1}, {1, 25}}, dist, scales, 2, 0, false); err != nil {
		t.Errorf("correct neighbours rejected: %v", err)
	}
	err := checkRanking("nn", []scored{{0, 0}, {2, 1}}, dist, scales, 2, 0, false)
	if err == nil || !strings.Contains(err.Error(), "index 0") {
		t.Errorf("the query row among its own neighbours: %v", err)
	}
	if err := checkRanking("nn", []scored{{1, 25}, {2, 1}}, dist, scales, 2, 0, false); err == nil {
		t.Error("descending distances were accepted")
	}
}

func TestSameFactors(t *testing.T) {
	served := handModel()
	local := twopcp.NewKTensor([]*twopcp.Matrix{
		{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}},
		{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}},
		{Rows: 2, Cols: 2, Data: []float64{1, 1, 2, 3}},
	})
	if err := sameFactors(local, served); err != nil {
		t.Errorf("equal factors rejected: %v", err)
	}
	local.Factors[2].Data[3] = math.Nextafter(3, 4)
	if err := sameFactors(local, served); err == nil {
		t.Error("a factor one ulp off was accepted")
	}
}
