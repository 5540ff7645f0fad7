package blockstore

import (
	"fmt"
	"sync"
	"time"
)

// LatencyStore wraps a Store and adds a fixed latency to every read and
// write, modeling the disk/network cost of moving a data unit. The paper's
// footnote 5 observes that swapping a block costs ~3× the in-memory work on
// it; experiments calibrate the delay accordingly so wall-clock comparisons
// (Table II) are I/O-bound like the original system.
type LatencyStore struct {
	Store // the wrapped store; Stats, ResetStats and Close are its own
	read  time.Duration
	write time.Duration

	mu      sync.Mutex
	waited  time.Duration
	sleeper func(time.Duration) // test seam; defaults to time.Sleep
}

// WithLatency wraps inner so every Get costs read and every Put costs write.
func WithLatency(inner Store, read, write time.Duration) *LatencyStore {
	return &LatencyStore{Store: inner, read: read, write: write, sleeper: time.Sleep}
}

func (s *LatencyStore) delay(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.waited += d
	sleep := s.sleeper
	s.mu.Unlock()
	sleep(d)
}

// do pays the operation's latency, then runs it against the wrapped store.
// Under a deadline (DeadlineStore): when the injected latency exceeds the
// budget, the store sleeps only the remaining budget and fails with
// ErrTimeout (transient — the data is fine, the store was slow); otherwise
// it sleeps the full latency and passes the remaining budget down when the
// wrapped store also honors deadlines.
func (s *LatencyStore) do(o op) (*Unit, error) {
	latency := s.read
	if o.put {
		latency = s.write
	}
	if o.timed && latency >= o.budget {
		s.delay(o.budget)
		return nil, fmt.Errorf("%w: %s ⟨%d,%d⟩ (%v latency over %v budget)",
			ErrTimeout, o.name(), o.mode, o.part, latency, o.budget)
	}
	s.delay(latency)
	o.budget -= latency
	return o.do(s.Store)
}

// Put implements Store.
func (s *LatencyStore) Put(u *Unit) error {
	_, err := s.do(putOp(u))
	return err
}

// Get implements Store.
func (s *LatencyStore) Get(mode, part int) (*Unit, error) { return s.do(getOp(mode, part)) }

// PutDeadline implements DeadlineStore; see do.
func (s *LatencyStore) PutDeadline(u *Unit, budget time.Duration) error {
	_, err := s.do(putOp(u).within(budget))
	return err
}

// GetDeadline implements DeadlineStore; see do.
func (s *LatencyStore) GetDeadline(mode, part int, budget time.Duration) (*Unit, error) {
	return s.do(getOp(mode, part).within(budget))
}

// Waited returns the cumulative injected latency (for reporting the I/O
// share of a run's wall time).
func (s *LatencyStore) Waited() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waited
}
