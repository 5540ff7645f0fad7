package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0) + 3} {
			counts := make([]int32, n)
			DoWorkers(w, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestDoSerialOrder(t *testing.T) {
	defer PopWorkers(PushWorkers(1))
	var got []int
	Do(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial Do out of order: %v", got)
		}
	}
}

// TestNestedDoDoesNotDeadlock exercises kernels calling kernels: inner Do
// calls issued from pool workers must complete even when the pool is
// saturated.
func TestNestedDoDoesNotDeadlock(t *testing.T) {
	defer PopWorkers(PushWorkers(0))
	var total atomic.Int64
	DoWorkers(8, 8, func(i int) {
		DoWorkers(8, 100, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 800 {
		t.Fatalf("nested Do ran %d inner calls, want 800", total.Load())
	}
}

// TestPushPopWorkersNoLeak pins the scoped-override contract: whatever
// order overlapping overrides finish in, a finished override's cap never
// governs the survivors, and popping them all restores the cap beneath.
func TestPushPopWorkersNoLeak(t *testing.T) {
	base := PushWorkers(5)
	defer PopWorkers(base)
	a := PushWorkers(8)
	b := PushWorkers(2)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2 (newest override)", Workers())
	}
	// The short-lived override finishes first: the survivor's cap must be
	// re-applied, not the finisher's and not the base.
	PopWorkers(b)
	if Workers() != 8 {
		t.Fatalf("Workers() = %d after inner pop, want surviving cap 8", Workers())
	}
	PopWorkers(a)
	if Workers() != 5 {
		t.Fatalf("Workers() = %d after all pops, want base 5", Workers())
	}
	PopWorkers(a) // stale token is a no-op
	if Workers() != 5 {
		t.Fatalf("Workers() = %d after stale pop, want 5", Workers())
	}
	// Out-of-order completion the other way: the elder pops first.
	a = PushWorkers(8)
	b = PushWorkers(2)
	PopWorkers(a)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d after elder pop, want 2", Workers())
	}
	PopWorkers(b)
	if Workers() != 5 {
		t.Fatalf("Workers() = %d, want base 5", Workers())
	}
	// The last pop leaves no cap: the default is GOMAXPROCS.
	PopWorkers(base)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d after the last pop, want GOMAXPROCS", Workers())
	}
}

func TestConcurrentDo(t *testing.T) {
	defer PopWorkers(PushWorkers(0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			DoWorkers(4, 500, func(i int) { sum.Add(int64(i)) })
			if sum.Load() != 500*499/2 {
				t.Errorf("sum = %d", sum.Load())
			}
		}()
	}
	wg.Wait()
}
