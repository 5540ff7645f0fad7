package cpals

import (
	"math"
	"math/rand"
	"testing"
)

func TestCongruenceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	k := randomKTensor(rng, 3, 6, 5, 4)
	if got := Congruence(k, k.Clone()); math.Abs(got-1) > 1e-10 {
		t.Fatalf("self congruence = %g", got)
	}
}

func TestCongruenceInvariantToPermutationAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	k := randomKTensor(rng, 3, 6, 5, 4)
	other := k.Clone()
	perm := []int{2, 0, 1} // other's component i is k's component perm[i]
	for i, p := range perm {
		other.Lambda[i] = k.Lambda[p]
		for m, a := range other.Factors {
			for r := 0; r < a.Rows; r++ {
				a.Set(r, i, k.Factors[m].At(r, p))
			}
		}
	}
	other.Factors[0].Scale(3) // per-mode rescaling is absorbed by Normalize
	if got := Congruence(k, other); math.Abs(got-1) > 1e-10 {
		t.Fatalf("congruence after permute+scale = %g", got)
	}
}

func TestCongruenceUnrelatedLow(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := randomKTensor(rng, 3, 30, 30, 30)
	b := randomKTensor(rng, 3, 30, 30, 30)
	// Random positive factors have substantial mean overlap, but far from 1.
	if got := Congruence(a, b); got > 0.97 {
		t.Fatalf("unrelated congruence = %g", got)
	}
}

func TestCongruenceVerifiesALSRecovery(t *testing.T) {
	// End-to-end: ALS on an exactly low-rank tensor must recover the true
	// factors up to permutation/scaling — congruence ≈ 1.
	rng := rand.New(rand.NewSource(66))
	truth := randomKTensor(rng, 2, 8, 7, 6)
	x := truth.Full()
	got, _, err := Decompose(x, Options{Rank: 2, MaxIters: 500, Tol: 1e-12, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if c := Congruence(got, truth); c < 0.99 {
		t.Fatalf("recovery congruence = %g", c)
	}
}

func TestCongruenceShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := randomKTensor(rng, 2, 3, 3)
	b := randomKTensor(rng, 3, 3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Congruence(a, b)
}
