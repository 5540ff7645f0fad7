package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// eightLaneNorm is the reference for Dense.Norm: element i's square joins
// lane i mod 8 front to back, the lanes are summed in one fixed tree, and
// the len mod 8 tail is added last.
func eightLaneNorm(data []float64) float64 {
	var lanes [8]float64
	body := len(data) &^ 7
	for i, v := range data[:body] {
		lanes[i%8] += v * v
	}
	s := ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
	for _, v := range data[body:] {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestNormMatchesEightLaneReference pins Norm to the reference bit for bit
// at every tail length and at a 64³ block, and holds it within n ulps
// (relative) of the serial sum of squares it replaced.
func TestNormMatchesEightLaneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var shapes [][]int
	for n := 0; n <= 17; n++ {
		shapes = append(shapes, []int{n})
	}
	shapes = append(shapes, []int{64, 64, 64})
	for _, dims := range shapes {
		x := NewDense(dims...)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		got, want := x.Norm(), eightLaneNorm(x.Data)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dims %v: Norm = %x, reference %x", dims, got, want)
		}
		var serial float64
		for _, v := range x.Data {
			serial += v * v
		}
		n := float64(len(x.Data))
		if d := math.Abs(got*got - serial); d > n*0x1p-52*serial {
			t.Fatalf("dims %v: ‖X‖² %g is %g from the serial sum %g, over n ulps", dims, got*got, d, serial)
		}
	}
}
