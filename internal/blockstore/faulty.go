package blockstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected marks a permanent fault produced by a FaultyStore.
var ErrInjected = errors.New("blockstore: injected fault")

// FaultPlan programs a FaultyStore: seeded probabilistic faults and outage
// windows, so chaos runs are reproducible from a single seed.
//
// Three fault shapes compose:
//
//   - Probabilistic: each read (write) fails independently with
//     ReadRate (WriteRate) probability, decided by a rand.Rand seeded
//     with Seed — the model of a flaky network or storage backend.
//   - Sticky outage: every read with 1-based op index in
//     [ReadOutageFrom, ReadOutageFrom+ReadOutageLen) fails (likewise for
//     writes) — the model of a backend that goes down and comes back
//     (transient-then-heal), or, with a huge Len, one that never heals.
//     Len 1 fails exactly the n-th operation, once.
//   - Permanent: when set, injected faults wrap ErrInjected (permanent,
//     never retried) instead of ErrTransient — the model of poison data.
type FaultPlan struct {
	// Seed drives the probabilistic fault decisions.
	Seed int64
	// ReadRate and WriteRate are per-op fault probabilities in [0,1).
	ReadRate  float64
	WriteRate float64
	// Outage windows over 1-based op indices; Len 0 disables.
	ReadOutageFrom  int64
	ReadOutageLen   int64
	WriteOutageFrom int64
	WriteOutageLen  int64
	// Permanent makes injected faults wrap ErrInjected instead of
	// ErrTransient.
	Permanent bool
}

// enabled reports whether the plan injects anything.
func (p FaultPlan) enabled() bool {
	return p.ReadRate > 0 || p.WriteRate > 0 || p.ReadOutageLen > 0 || p.WriteOutageLen > 0
}

// FaultyStore wraps a Store and injects failures — a failure-injection
// harness for exercising the recovery paths of Phase 2 and the buffer
// manager (a real disk can fail mid-run; the engine must recover or
// surface that instead of corrupting factors).
//
// SetPlan is the one way to program it: a seeded FaultPlan of
// probabilistic and outage faults, by default transient (wrapping
// ErrTransient) so ResilientStore retries heal them.
type FaultyStore struct {
	Store // the wrapped store; Stats, ResetStats and Close are its own

	mu         sync.Mutex
	rng        *rand.Rand
	plan       FaultPlan
	reads      int64
	writes     int64
	readFails  int64 // count of injected read failures
	writeFails int64 // count of injected write failures
}

// NewFaultyStore wraps inner; it injects nothing until SetPlan.
func NewFaultyStore(inner Store) *FaultyStore {
	return &FaultyStore{Store: inner}
}

// SetPlan installs (or, with a zero plan, clears) a fault program. Not
// safe to call concurrently with operations.
func (s *FaultyStore) SetPlan(p FaultPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = p
	if p.enabled() {
		s.rng = rand.New(rand.NewSource(p.Seed))
	} else {
		s.rng = nil
	}
}

// inject decides under the mutex whether op index n of kind "get"/"put"
// fails, and returns the injected error (nil = pass through).
func (s *FaultyStore) inject(kind string, n int64, rate float64, outFrom, outLen int64, mode, part int) error {
	fail := outLen > 0 && n >= outFrom && n < outFrom+outLen
	if !fail && rate > 0 && s.rng != nil && s.rng.Float64() < rate {
		fail = true
	}
	if !fail {
		return nil
	}
	if kind == "get" {
		s.readFails++
	} else {
		s.writeFails++
	}
	if s.plan.Permanent {
		return fmt.Errorf("%w: %s ⟨%d,%d⟩ (op %d)", ErrInjected, kind, mode, part, n)
	}
	return fmt.Errorf("%w: injected %s fault ⟨%d,%d⟩ (op %d)", ErrTransient, kind, mode, part, n)
}

// Put implements Store.
func (s *FaultyStore) Put(u *Unit) error {
	s.mu.Lock()
	s.writes++
	err := s.inject("put", s.writes,
		s.plan.WriteRate, s.plan.WriteOutageFrom, s.plan.WriteOutageLen, u.Mode, u.Part)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Store.Put(u)
}

// Get implements Store.
func (s *FaultyStore) Get(mode, part int) (*Unit, error) {
	s.mu.Lock()
	s.reads++
	err := s.inject("get", s.reads,
		s.plan.ReadRate, s.plan.ReadOutageFrom, s.plan.ReadOutageLen, mode, part)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.Store.Get(mode, part)
}

// Fails returns the injected read and write failure counts.
func (s *FaultyStore) Fails() (reads, writes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readFails, s.writeFails
}
