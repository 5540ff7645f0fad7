package blockstore

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"twopcp/internal/obs"
)

// The backoff before retry k (1-based) is baseBackoff·2^(k−1), capped at
// maxBackoff, with seeded jitter in [d/2, d].
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 100 * time.Millisecond
)

// Retryer executes operations under a retry budget: transient failures
// (IsTransient) are retried up to maxRetries times per operation with
// capped exponential backoff and deterministic seeded jitter; permanent
// failures surface immediately. It is the retry core shared by
// ResilientStore and Phase 1's per-block source reads, so both layers emit
// the same store.retry events and count retries the same way.
//
// The budget changes what a run survives, never what it computes: only
// successful operations count in Stats' Reads/Writes/Bytes and in the
// deterministic trace, so factors, FitTrace and swap counts are
// bit-identical to a fault-free run, and the budget is not fingerprinted,
// so a resumed run may use another one.
type Retryer struct {
	maxRetries int
	ob         *obs.Observer
	retries    *obs.Counter

	mu       sync.Mutex
	rng      *rand.Rand
	sleep    func(time.Duration) // test seam; defaults to time.Sleep
	nRetries int64
}

// NewRetryer returns a retryer that retries each operation up to
// maxRetries times (0: the first error surfaces), its jitter seeded by
// seed. A nil observer is valid (metrics and events are skipped).
func NewRetryer(maxRetries int, seed int64, ob *obs.Observer) *Retryer {
	return &Retryer{
		maxRetries: maxRetries,
		ob:         ob,
		retries:    ob.Counter("store.retries"),
		rng:        rand.New(rand.NewSource(seed)),
		sleep:      time.Sleep,
	}
}

// Retries returns the cumulative number of retry attempts performed.
func (r *Retryer) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nRetries
}

// Do runs op, retrying transient errors up to the budget. opName and
// mode/part annotate the emitted store.retry events (Phase 1 passes the
// block id as part with mode -1). The returned error is op's last error:
// permanent immediately, or transient with the budget exhausted.
func (r *Retryer) Do(opName string, mode, part int, op func() error) error {
	err := op()
	for attempt := 1; err != nil && IsTransient(err) && attempt <= r.maxRetries; attempt++ {
		d := r.backoff(attempt)
		r.note(opName, mode, part, attempt, d, err)
		r.sleep(d)
		err = op()
	}
	return err
}

// backoff returns the wait before retry `attempt` (1-based): exponential
// from baseBackoff, capped at maxBackoff, with seeded jitter in
// [d/2, d] so concurrent retries decorrelate reproducibly.
func (r *Retryer) backoff(attempt int) time.Duration {
	d := maxBackoff
	if attempt-1 < 20 { // beyond 2^20× base the cap always wins
		if e := baseBackoff << uint(attempt-1); e < d {
			d = e
		}
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d/2 + j
}

// note counts and traces one retry attempt.
func (r *Retryer) note(opName string, mode, part, attempt int, backoff time.Duration, err error) {
	r.mu.Lock()
	r.nRetries++
	r.mu.Unlock()
	r.retries.Inc()
	if r.ob.Tracing() {
		r.ob.Emit("store.retry",
			obs.Str("op", opName), obs.Int("mode", mode), obs.Int("part", part),
			obs.Int("attempt", attempt), obs.I64("backoff_ns", int64(backoff)),
			obs.Str("error", err.Error()))
	}
}

// ResilientStore wraps a Store with the recovery a remote or failure-prone
// backend needs: a per-op retry budget for transient faults, with capped
// exponential backoff and deterministic seeded jitter between the
// attempts. An operation that fails past its budget, or fails permanently,
// returns its error annotated with the operation; the next operation gets
// a full budget again. It is the only layer of the Phase-2 stack that
// repeats a store operation. Retries are counted in Stats (monotonically —
// ResetStats does not zero them, so run totals reconcile with the trace)
// and emitted as store.retry events.
type ResilientStore struct {
	Store // the wrapped store; ResetStats and Close are its own
	retry *Retryer
}

// Resilient wraps inner with a budget of maxRetries retries per operation,
// its jitter seeded by seed. A nil observer is valid.
func Resilient(inner Store, maxRetries int, seed int64, ob *obs.Observer) *ResilientStore {
	return &ResilientStore{Store: inner, retry: NewRetryer(maxRetries, seed, ob)}
}

// SetSleep replaces the backoff sleeper (test seam).
func (s *ResilientStore) SetSleep(f func(time.Duration)) {
	s.retry.mu.Lock()
	s.retry.sleep = f
	s.retry.mu.Unlock()
}

// do is the one path every operation takes: the attempt, retried while it
// fails transiently, then the error annotated with the operation.
func (s *ResilientStore) do(opName string, mode, part int, op func() error) error {
	if err := s.retry.Do(opName, mode, part, op); err != nil {
		return fmt.Errorf("blockstore: %s ⟨%d,%d⟩: %w", opName, mode, part, err)
	}
	return nil
}

// Get implements Store.
func (s *ResilientStore) Get(mode, part int) (u *Unit, err error) {
	err = s.do("get", mode, part, func() (e error) {
		u, e = s.Store.Get(mode, part)
		return e
	})
	return u, err
}

// Put implements Store.
func (s *ResilientStore) Put(u *Unit) error {
	return s.do("put", u.Mode, u.Part, func() error { return s.Store.Put(u) })
}

// Stats implements Store: the wrapped store's counters plus this layer's
// monotonic retry count (its ResetStats zeroes only the former).
func (s *ResilientStore) Stats() Stats {
	st := s.Store.Stats()
	st.Retries += s.retry.Retries()
	return st
}
