package refine

import (
	"errors"
	"math"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/runstate"
	"twopcp/internal/schedule"
)

// TestStopDrainsAndCheckpointResumesBitExact: closing Stop mid-run drains
// gracefully (checkpoint written, ErrStopped returned) and resuming the
// checkpoint finishes bit-identical to an uninterrupted run.
func TestStopDrainsAndCheckpointResumesBitExact(t *testing.T) {
	p1 := resumePhase1(t)
	base := Config{
		Phase1: p1, Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 6, Tol: math.Inf(-1), Seed: 5,
	}

	plainCfg := base
	plainCfg.Store = blockstore.NewMemStore()
	eng, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rs, err := runstate.Open(dir, resumeMeta(), 27, false)
	if err != nil {
		t.Fatal(err)
	}
	// Trip the stop signal from inside the run: a wrapper store counts
	// Gets and closes Stop partway through. The engine checks Stop at
	// step boundaries, so this models a SIGTERM landing mid-phase-2.
	stop := make(chan struct{})
	stopCfg := base
	stopCfg.Store = &stopAfterReads{inner: blockstore.NewMemStore(), after: 5, stop: stop}
	stopCfg.Stop = stop
	stopCfg.Checkpoint = rs
	stopCfg.CheckpointEverySteps = 4
	eng2, err := New(stopCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng2.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}

	rs2, err := runstate.Open(dir, resumeMeta(), 27, true)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := base
	resumeCfg.Store = blockstore.NewMemStore()
	resumeCfg.Checkpoint = rs2
	eng3, err := New(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng3.Run()
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	sameTrace(t, "drained+resumed", res.FitTrace, plain.FitTrace)
	sameFactors(t, "drained+resumed", res, plain)
}

// stopAfterReads closes stop after `after` Gets (test trigger for a
// mid-run drain signal).
type stopAfterReads struct {
	inner  blockstore.Store
	after  int
	reads  int
	stop   chan struct{}
	closed bool
}

func (s *stopAfterReads) Get(mode, part int) (*blockstore.Unit, error) {
	s.reads++
	if s.reads >= s.after && !s.closed {
		s.closed = true
		close(s.stop)
	}
	return s.inner.Get(mode, part)
}

func (s *stopAfterReads) Put(u *blockstore.Unit) error { return s.inner.Put(u) }
func (s *stopAfterReads) Stats() blockstore.Stats      { return s.inner.Stats() }
func (s *stopAfterReads) ResetStats()                  { s.inner.ResetStats() }
func (s *stopAfterReads) Close() error                 { return s.inner.Close() }

// TestStopWithoutCheckpointReturnsErrStopped: a drain without a
// checkpointer still stops cleanly (nothing to save, no panic).
func TestStopWithoutCheckpointReturnsErrStopped(t *testing.T) {
	p1 := resumePhase1(t)
	stop := make(chan struct{})
	close(stop)
	cfg := Config{
		Phase1: p1, Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 6, Tol: math.Inf(-1), Seed: 5,
		Store: blockstore.NewMemStore(), Stop: stop,
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestResumeAfterWriteBackFailure: a write-back that fails for good ends
// the run with the store's error, and resuming from the last regular
// checkpoint over the healed store finishes bit-identical to an
// uninterrupted run.
func TestResumeAfterWriteBackFailure(t *testing.T) {
	p1 := resumePhase1(t)
	base := Config{
		Phase1: p1, Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		// Tight buffer forces evictions (and so write-backs) early.
		BufferFraction: 0.34, MaxVirtualIters: 6, Tol: math.Inf(-1), Seed: 5,
		PrefetchDepth: 2, IOWorkers: 2,
	}

	plainCfg := base
	plainCfg.Store = blockstore.NewMemStore()
	eng, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rs, err := runstate.Open(dir, resumeMeta(), 27, false)
	if err != nil {
		t.Fatal(err)
	}
	faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
	failCfg := base
	failCfg.Store = faulty
	failCfg.Checkpoint = rs
	failCfg.CheckpointEverySteps = 4
	eng2, err := New(failCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The store dies for writes mid-run; the evicting Acquire whose
	// write-back hits it ends the run.
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 20, WriteOutageLen: 1 << 40, Permanent: true})
	if _, err := eng2.Run(); !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("run over a dead store: err = %v, want the injected fault", err)
	}

	rs2, err := runstate.Open(dir, resumeMeta(), 27, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rs2.LoadPhase2(); err != nil || !ok {
		t.Fatalf("no Phase-2 checkpoint before the failure (ok=%v, err=%v)", ok, err)
	}
	faulty.SetPlan(blockstore.FaultPlan{})
	resumeCfg := base
	resumeCfg.Store = faulty
	resumeCfg.Checkpoint = rs2
	eng3, err := New(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng3.Run()
	if err != nil {
		t.Fatalf("resume after the write-back failure: %v", err)
	}
	sameTrace(t, "failed+resumed", res.FitTrace, plain.FitTrace)
	sameFactors(t, "failed+resumed", res, plain)
}
