package blockstore

import "time"

// LatencyStore wraps a Store and adds a fixed latency to every read and
// write, modeling the disk/network cost of moving a data unit. The paper's
// footnote 5 observes that swapping a block costs ~3× the in-memory work on
// it; experiments calibrate the delay accordingly so wall-clock comparisons
// (Table II) are I/O-bound like the original system.
type LatencyStore struct {
	Store // the wrapped store; Stats, ResetStats and Close are its own
	read  time.Duration
	write time.Duration
}

// WithLatency wraps inner so every Get costs read and every Put costs write.
func WithLatency(inner Store, read, write time.Duration) *LatencyStore {
	return &LatencyStore{Store: inner, read: read, write: write}
}

// Put implements Store.
func (s *LatencyStore) Put(u *Unit) error {
	time.Sleep(s.write)
	return s.Store.Put(u)
}

// Get implements Store.
func (s *LatencyStore) Get(mode, part int) (*Unit, error) {
	time.Sleep(s.read)
	return s.Store.Get(mode, part)
}
