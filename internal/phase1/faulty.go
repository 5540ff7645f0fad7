package phase1

import (
	"fmt"
	"math/rand"
	"sync"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
)

// FaultySource wraps a Source with seeded fault injection for chaos
// testing the Phase-1 recovery paths: each Block read fails with
// probability Rate (transient — wrapping blockstore.ErrTransient, so
// Options.MaxRetries heals it), and blocks listed in Poison fail permanently
// on every read (wrapping blockstore.ErrInjected, so they exhaust any
// budget and land in quarantine).
type FaultySource struct {
	inner  Source
	rate   float64
	poison map[int]bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultySource wraps inner; rate is the per-read transient fault
// probability, seed makes the injection reproducible, and poison lists
// permanently failing linear block ids.
func NewFaultySource(inner Source, rate float64, seed int64, poison []int) *FaultySource {
	s := &FaultySource{inner: inner, rate: rate, poison: make(map[int]bool, len(poison))}
	for _, id := range poison {
		s.poison[id] = true
	}
	if rate > 0 {
		s.rng = rand.New(rand.NewSource(seed))
	}
	return s
}

// Pattern implements Source.
func (s *FaultySource) Pattern() *grid.Pattern { return s.inner.Pattern() }

// Block implements Source.
func (s *FaultySource) Block(vec []int) (any, error) {
	id := s.inner.Pattern().Linear(vec)
	if s.poison[id] {
		return nil, fmt.Errorf("%w: poison block %d", blockstore.ErrInjected, id)
	}
	if s.rng != nil {
		s.mu.Lock()
		fail := s.rng.Float64() < s.rate
		s.mu.Unlock()
		if fail {
			return nil, fmt.Errorf("%w: injected block read fault (block %d)", blockstore.ErrTransient, id)
		}
	}
	return s.inner.Block(vec)
}
