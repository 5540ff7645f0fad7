package phase1

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// memCheckpointer is an in-memory Checkpointer for quarantine-resume
// tests.
type memCheckpointer struct {
	mu     sync.Mutex
	blocks map[int][]*mat.Matrix
	fits   map[int]float64
}

func (c *memCheckpointer) LoadBlock(id int) ([]*mat.Matrix, float64, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.blocks[id]
	return f, c.fits[id], ok, nil
}

func (c *memCheckpointer) SaveBlock(id int, factors []*mat.Matrix, fit float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blocks == nil {
		c.blocks = map[int][]*mat.Matrix{}
		c.fits = map[int]float64{}
	}
	c.blocks[id] = factors
	c.fits[id] = fit
	return nil
}

// TestRetryHealsTransientBlockFaults: seeded transient block-read faults
// under a sufficient retry budget produce bit-identical sub-factors to a
// fault-free run, with retries reported in the Result.
func TestRetryHealsTransientBlockFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	opts := Options{Rank: 3, MaxIters: 10, Seed: 7}

	src, _ := NewDenseSource(x, p)
	clean, err := Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	src2, _ := NewDenseSource(x, p)
	faultyOpts := opts
	faultyOpts.MaxRetries = 30
	faulty, err := Run(NewFaultySource(src2, 0.4, 99, nil), faultyOpts)
	if err != nil {
		t.Fatalf("run with healable faults: %v", err)
	}
	if faulty.Retries == 0 {
		t.Fatal("0 retries at 0.4 fault rate — injection not exercised")
	}
	if len(faulty.Quarantined) != 0 {
		t.Fatalf("quarantined %v under a sufficient budget", faulty.Quarantined)
	}
	for id := range clean.Sub {
		for m := range clean.Sub[id] {
			if !clean.Sub[id][m].Equal(faulty.Sub[id][m]) {
				t.Fatalf("block %d mode %d differs between clean and healed runs", id, m)
			}
		}
	}
}

// TestPoisonBlocksQuarantined: permanently failing blocks land in the
// sorted quarantine list as a typed *QuarantineError; sibling blocks'
// work is kept, not lost.
func TestPoisonBlocksQuarantined(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	src, _ := NewDenseSource(x, p)
	poison := []int{5, 1}

	res, err := Run(NewFaultySource(src, 0, 0, poison), Options{
		Rank: 3, MaxIters: 10, Seed: 7, MaxRetries: 2,
	})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if !errors.Is(err, blockstore.ErrInjected) {
		t.Fatal("QuarantineError must unwrap to the underlying block errors")
	}
	want := []int{1, 5}
	if !reflect.DeepEqual(qe.Blocks, want) {
		t.Fatalf("quarantined blocks = %v, want %v (sorted)", qe.Blocks, want)
	}
	if !reflect.DeepEqual(res.Quarantined, want) {
		t.Fatalf("Result.Quarantined = %v, want %v", res.Quarantined, want)
	}
	// Sibling work survived: every non-poisoned block has its factors.
	quarantined := map[int]bool{1: true, 5: true}
	for id := range res.Sub {
		if quarantined[id] {
			continue
		}
		if res.Sub[id] == nil {
			t.Fatalf("healthy block %d lost its sub-factors", id)
		}
	}
	// Permanent faults are not retried: budget 2 but 0 retries burned.
	if res.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 for permanent faults", res.Retries)
	}
}

// TestQuarantineResumable: after quarantine, a re-run over a healed source
// with the same checkpointer recomputes only the quarantined blocks and
// finishes bit-identical to an all-clean run.
func TestQuarantineResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	opts := Options{Rank: 3, MaxIters: 10, Seed: 7}

	srcClean, _ := NewDenseSource(x, p)
	clean, err := Run(srcClean, opts)
	if err != nil {
		t.Fatal(err)
	}

	ck := &memCheckpointer{}
	src1, _ := NewDenseSource(x, p)
	o1 := opts
	o1.Checkpoint = ck
	o1.MaxRetries = 1
	_, err = Run(NewFaultySource(src1, 0, 0, []int{3}), o1)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("first run: err = %v, want *QuarantineError", err)
	}

	// The fault is fixed; resume recomputes only block 3.
	src2, _ := NewDenseSource(x, p)
	o2 := opts
	o2.Checkpoint = ck
	res, err := Run(src2, o2)
	if err != nil {
		t.Fatalf("resume after quarantine: %v", err)
	}
	recomputed := 0
	for id, s := range res.Sweeps {
		if s > 0 {
			recomputed++
			if id != 3 {
				t.Fatalf("block %d recomputed; only quarantined block 3 should be", id)
			}
		}
	}
	if recomputed != 1 {
		t.Fatalf("recomputed %d blocks, want 1", recomputed)
	}
	for id := range clean.Sub {
		for m := range clean.Sub[id] {
			if !clean.Sub[id][m].Equal(res.Sub[id][m]) {
				t.Fatalf("block %d mode %d differs after quarantine resume", id, m)
			}
		}
	}
}

// TestStopDrainsGracefully: closing Stop before Run starts yields
// ErrStopped with no blocks computed; the result still carries the
// (empty) progress so a checkpointed run can resume.
func TestStopDrainsGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	src, _ := NewDenseSource(x, p)

	stop := make(chan struct{})
	close(stop)
	res, err := Run(src, Options{Rank: 3, MaxIters: 10, Seed: 7, Stop: stop})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if res == nil {
		t.Fatal("drained run must still return its partial Result")
	}
	for id, s := range res.Sub {
		if s != nil {
			t.Fatalf("block %d computed after pre-closed Stop", id)
		}
	}
}
