package phase1

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"twopcp/internal/grid"
	"twopcp/internal/runstate"
	"twopcp/internal/tensor"
)

// countingSource wraps a Source, counting Block calls and failing once a
// budget is exhausted — the Phase-1 analogue of a mid-run crash.
type countingSource struct {
	inner Source

	mu       sync.Mutex
	calls    int
	failFrom int // 1-based call index from which Block fails; 0 = never
}

var errSourceDown = errors.New("phase1 test: source down")

func (s *countingSource) Pattern() *grid.Pattern { return s.inner.Pattern() }

func (s *countingSource) Block(vec []int) (any, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if s.failFrom > 0 && n >= s.failFrom {
		return nil, errSourceDown
	}
	return s.inner.Block(vec)
}

func (s *countingSource) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// TestPhase1ResumeSkipsCompletedBlocks interrupts Phase 1 partway, resumes
// it with a checkpoint, and verifies (a) the result is bit-identical to an
// uninterrupted run and (b) blocks completed before the crash are not read
// from the source again.
func TestPhase1ResumeSkipsCompletedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := tensor.RandomDense(rng, 12, 10, 8)
	p := grid.MustNew([]int{12, 10, 8}, []int{3, 2, 2})
	src, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 3, MaxIters: 4, Tol: 1e-3, Seed: 21, Workers: 1}

	ref, err := Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	meta := runstate.Meta{InputKind: "test", Dims: p.Dims, Partitions: p.K, Rank: 3, Seed: 21}
	dir := t.TempDir()
	rs, err := runstate.Open(dir, meta, p.NumBlocks(), false)
	if err != nil {
		t.Fatal(err)
	}
	failing := &countingSource{inner: src, failFrom: 6}
	interrupted := opts
	interrupted.Checkpoint = rs
	if _, err := Run(failing, interrupted); !errors.Is(err, errSourceDown) {
		t.Fatalf("interrupted run: got error %v, want source failure", err)
	}
	completed := rs.Phase1Completed()
	if completed == 0 || completed >= p.NumBlocks() {
		t.Fatalf("interruption checkpointed %d of %d blocks; test needs a strict subset", completed, p.NumBlocks())
	}

	rs2, err := runstate.Open(dir, meta, p.NumBlocks(), true)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingSource{inner: src}
	resumed := opts
	resumed.Checkpoint = rs2
	res, err := Run(counting, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counting.Calls(), p.NumBlocks()-completed; got != want {
		t.Errorf("resume read %d blocks from the source, want %d (skipping %d)", got, want, completed)
	}
	for id := range ref.Sub {
		if res.Fits[id] != ref.Fits[id] {
			t.Fatalf("block %d fit %v, want %v", id, res.Fits[id], ref.Fits[id])
		}
		for m := range ref.Sub[id] {
			g, w := res.Sub[id][m], ref.Sub[id][m]
			for i := range w.Data {
				if g.Data[i] != w.Data[i] {
					t.Fatalf("block %d mode %d differs at %d", id, m, i)
				}
			}
		}
	}

	// A second resume after completion reads nothing at all.
	rs3, err := runstate.Open(dir, meta, p.NumBlocks(), true)
	if err != nil {
		t.Fatal(err)
	}
	idle := &countingSource{inner: src}
	resumed.Checkpoint = rs3
	if _, err := Run(idle, resumed); err != nil {
		t.Fatal(err)
	}
	if idle.Calls() != 0 {
		t.Errorf("fully-checkpointed resume still read %d blocks", idle.Calls())
	}
}

// TestPhase1ResumeParallelWorkers runs the checkpointed run, then its
// resume, under a worker pool: seven workers append to the one block log
// concurrently, and seven load from it concurrently after a reopen.
func TestPhase1ResumeParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandomDense(rng, 12, 12, 12)
	p := grid.UniformCube(3, 12, 3)
	src, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 3, MaxIters: 3, Tol: 1e-3, Seed: 22, Workers: 7}
	ref, err := Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	meta := runstate.Meta{InputKind: "test", Dims: p.Dims, Partitions: p.K, Rank: 3, Seed: 22}
	dir := t.TempDir()
	for _, resume := range []bool{false, true} {
		rs, err := runstate.Open(dir, meta, p.NumBlocks(), resume)
		if err != nil {
			t.Fatal(err)
		}
		counting := &countingSource{inner: src}
		ckpt := opts
		ckpt.Checkpoint = rs
		res, err := Run(counting, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Phase1Completed() != p.NumBlocks() {
			t.Fatalf("resume=%v: log records %d blocks, want %d", resume, rs.Phase1Completed(), p.NumBlocks())
		}
		if resume && counting.Calls() != 0 {
			t.Fatalf("resume read %d blocks from the source, want 0", counting.Calls())
		}
		for id := range ref.Sub {
			for m := range ref.Sub[id] {
				g, w := res.Sub[id][m], ref.Sub[id][m]
				for i := range w.Data {
					if g.Data[i] != w.Data[i] {
						t.Fatalf("resume=%v: block %d mode %d differs", resume, id, m)
					}
				}
			}
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
