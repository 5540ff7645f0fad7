package twopcp

import (
	"math/rand"
	"path/filepath"
	"testing"
)

func TestPublicTensorConstructorsAndIO(t *testing.T) {
	rng := rand.New(rand.NewSource(30))

	d := RandomDense(rng, 4, 3, 2)
	if d.NModes() != 3 || d.Len() != 24 {
		t.Fatalf("RandomDense shape: %v", d.Dims)
	}
	if z := NewDense(2, 2); z.NNZ() != 0 {
		t.Fatal("NewDense not zero")
	}

	c := RandomCOO(rng, 0.3, 5, 5)
	if c.NModes() != 2 || c.NNZ() == 0 {
		t.Fatalf("RandomCOO: %v", c)
	}
	if e := NewCOO(3, 3); e.NNZ() != 0 {
		t.Fatal("NewCOO not empty")
	}
	sp := FromDense(d)
	if sp.NNZ() != d.NNZ() {
		t.Fatal("FromDense lost entries")
	}

	dir := t.TempDir()
	dp := filepath.Join(dir, "d.tpdn")
	if err := SaveDense(dp, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDense(dp)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.EqualApprox(d, 0) {
		t.Fatal("dense file round trip failed")
	}
	cp := filepath.Join(dir, "c.tpsp")
	if err := SaveCOO(cp, c); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCOO(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Dense().EqualApprox(c.Dense(), 0) {
		t.Fatal("sparse file round trip failed")
	}
}

func TestDecomposeSparseValidation(t *testing.T) {
	x := NewCOO(4, 4)
	if _, err := DecomposeSparse(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := DecomposeSparse(x, Options{Rank: 2, Partitions: []int{1, 2, 3}}); err == nil {
		t.Fatal("partition arity mismatch accepted")
	}
}

func TestCongruencePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	factors := make([]*Matrix, 2)
	for k := range factors {
		factors[k] = randomMatrix(rng, 4, 2)
	}
	a := NewKTensor(factors)
	if c := Congruence(a, a.Clone()); c < 0.999 {
		t.Fatalf("self congruence = %g", c)
	}
}
