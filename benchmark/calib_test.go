package main

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticRun simulates one run: ops that take trueMS on the nominal
// machine, on a machine slowed by `slowdown`, with reference samples
// around every op. One op in four and one pass in five catch a transient
// stall the other side did not see: interference shorter than an op.
func syntheticRun(rng *rand.Rand, trueMS, slowdown float64, ops int) (raw, passes []float64) {
	jitter := func() float64 { return 1 + 0.03*(2*rng.Float64()-1) }
	for i := 0; i < ops; i++ {
		op := trueMS * slowdown * jitter()
		if i%4 == 1 {
			op *= 1.3
		}
		raw = append(raw, op)
		for p := 0; p < 2*refPasses; p++ {
			pass := RefNominalMS * slowdown * jitter()
			if rng.Intn(5) == 0 {
				pass *= 1.6
			}
			passes = append(passes, pass)
		}
	}
	return raw, passes
}

// TestCalibrationRecoversDrift: a run on a machine slowed 1.8× must
// calibrate to the same time as a run on the nominal machine, both
// within 3 % of the truth, where the raw times differ by the full 1.8×.
func TestCalibrationRecoversDrift(t *testing.T) {
	const trueMS = 1000.0
	rng := rand.New(rand.NewSource(7))
	for _, slowdown := range []float64{1, 1.8} {
		raw, passes := syntheticRun(rng, trueMS, slowdown, 10)
		c := &calibrator{passes: passes}
		if got := c.calibrated(raw); math.Abs(got-trueMS)/trueMS > 0.03 {
			t.Errorf("slowdown %.1f: calibrated to %.1f ms, want %.0f ms within 3%%", slowdown, got, trueMS)
		}
		if got := median(raw) / trueMS; math.Abs(got-slowdown) > 0.2*slowdown {
			t.Errorf("slowdown %.1f: raw median is %.2f× the truth: the synthetic run does not test what it should", slowdown, got)
		}
	}
}

func TestCalibratorSections(t *testing.T) {
	c := newCalibrator()
	op := c.bracket(func() {})
	if len(c.samples) != 2 || len(c.passes) != 2*refPasses {
		t.Fatalf("one bracket took %d samples and %d passes, want 2 and %d", len(c.samples), len(c.passes), 2*refPasses)
	}
	if op.wallMS < 0 || op.cpuMS < 0 {
		t.Errorf("negative times: %+v", op)
	}
	if f := c.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("factor = %v", f)
	}
	c.reset()
	if len(c.samples) != 0 || len(c.passes) != 0 {
		t.Error("reset kept samples")
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(v, 0.25); got != 1.75 {
		t.Errorf("first quartile = %g, want 1.75", got)
	}
	if got := iqrOverMedian(v); math.Abs(got-1.5/2.5) > 1e-12 {
		t.Errorf("IQR over median = %g, want 0.6", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestRefKernelIsFrozen(t *testing.T) {
	// The checksum pins the kernel's data and arithmetic: an edit that
	// changes what a pass computes changes this number. The tolerance
	// only allows for fused multiply-adds on other architectures.
	const want = 261766.98874909474
	k := newRefKernel()
	for pass := 0; pass < 2; pass++ {
		if got := k.pass(); math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("pass %d: checksum %.17g, want %.17g: the reference kernel has changed", pass, got, want)
		}
	}
}
