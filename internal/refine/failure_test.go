package refine

import (
	"errors"
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// failingPhase1 builds a small Phase-1 result for failure-injection runs.
func failingPhase1(t *testing.T) *phase1.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(50))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 2, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p1
}

func TestEngineSurfacesReadFault(t *testing.T) {
	p1 := failingPhase1(t)
	faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
	eng, err := New(Config{
		Phase1: p1, Store: faulty,
		Schedule: schedule.ZOrder, Policy: buffer.LRU,
		BufferFraction: 1.0 / 3, MaxVirtualIters: 10, Tol: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Setup performs no reads (the initial A is regenerated rather than
	// re-read), so every read is a run-time fetch.
	faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: 10, ReadOutageLen: 1, Permanent: true})
	_, err = eng.Run()
	if !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("err = %v, want injected read fault", err)
	}
}

func TestEngineSurfacesWriteBackFault(t *testing.T) {
	p1 := failingPhase1(t)
	faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
	eng, err := New(Config{
		Phase1: p1, Store: faulty,
		Schedule: schedule.ZOrder, Policy: buffer.LRU,
		// Tight buffer forces dirty evictions (write-backs).
		BufferFraction: 1.0 / 3, MaxVirtualIters: 10, Tol: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// seedUnits used the first ΣK=6 writes; fail the first write-back.
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 7, WriteOutageLen: 1, Permanent: true})
	_, err = eng.Run()
	if !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("err = %v, want injected write fault", err)
	}
	if _, writes := faulty.Fails(); writes != 1 {
		t.Fatalf("write fails = %d", writes)
	}
}

func TestEngineSetupFaultFailsConstruction(t *testing.T) {
	p1 := failingPhase1(t)
	faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 1, WriteOutageLen: 1, Permanent: true}) // the very first unit Put during seedUnits
	if _, err := New(Config{
		Phase1: p1, Store: faulty,
		Schedule: schedule.ModeCentric, Policy: buffer.LRU,
	}); !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("err = %v, want injected setup fault", err)
	}
}

func TestStoreIsConsistentAfterFault(t *testing.T) {
	// After a mid-run fault, the store must still hold decodable units
	// (atomicity of individual Puts), so a retry can proceed.
	p1 := failingPhase1(t)
	faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
	eng, err := New(Config{
		Phase1: p1, Store: faulty,
		Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 1.0 / 3, MaxVirtualIters: 10, Tol: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: 8, ReadOutageLen: 1, Permanent: true})
	if _, err := eng.Run(); !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	// Every unit is still present and well-formed.
	p := p1.Pattern
	for mode := 0; mode < p.NModes(); mode++ {
		for part := 0; part < p.K[mode]; part++ {
			u, err := faulty.Get(mode, part)
			if err != nil {
				t.Fatalf("unit ⟨%d,%d⟩ unreadable after fault: %v", mode, part, err)
			}
			if u.A == nil || u.Slab == nil || u.Slab.Cols != p.SlabSize(mode)*u.A.Cols {
				t.Fatalf("unit ⟨%d,%d⟩ malformed after fault", mode, part)
			}
		}
	}
}
