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

// TestEmergencyCheckpointOnWriteBackFailure: when an asynchronous
// write-back fails for good, the engine writes an emergency
// checkpoint before surfacing the error — and resuming that checkpoint
// over a healed store finishes bit-identical to an uninterrupted run.
func TestEmergencyCheckpointOnWriteBackFailure(t *testing.T) {
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
	// Unbounded write outage starting mid-run: the background write-back
	// fails and the next step-boundary Acquire surfaces it.
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 20, WriteOutageLen: 1 << 40})
	_, err = eng2.Run()
	if err == nil {
		t.Fatal("run over a dead store succeeded")
	}
	if !errors.Is(err, buffer.ErrAsyncWriteBack) {
		t.Fatalf("err = %v, want wrapped buffer.ErrAsyncWriteBack", err)
	}

	// The emergency checkpoint (or an earlier regular one) must leave the
	// directory resumable — and the resume must be bit-exact.
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
		t.Fatalf("resume after emergency checkpoint: %v", err)
	}
	sameTrace(t, "emergency-resumed", res.FitTrace, plain.FitTrace)
	sameFactors(t, "emergency-resumed", res, plain)
}
