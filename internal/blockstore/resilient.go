package blockstore

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"twopcp/internal/obs"
)

// RetryPolicy configures the resilience layer: how many times a transient
// fault is retried, how backoff grows between attempts, and when the
// circuit breaker gives up on the store entirely. The zero value disables
// the layer (Enabled() == false); MaxRetries > 0 turns it on with sane
// defaults for the unset knobs.
//
// The policy is an execution knob like Workers or PrefetchDepth: it can
// change what a run survives, never what it computes. Retried operations
// leave Stats' Reads/Writes/Bytes counters and the deterministic trace
// events untouched (only successful operations count), so factors,
// FitTrace and swap counts are bit-identical to a fault-free run — and
// the policy is excluded from the runstate fingerprint, so a resumed run
// may use a different policy than the run that wrote the checkpoint.
type RetryPolicy struct {
	// MaxRetries is the per-operation retry budget for transient faults;
	// 0 disables retrying (the first error surfaces).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; it doubles per attempt up
	// to MaxBackoff. Defaults: 1ms base, 100ms cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the number of consecutive operations that must
	// fail permanently (a permanent fault, or a transient fault that
	// exhausted its retry budget) before the breaker trips to fail-fast.
	// Defaults to 8 when 0.
	BreakerThreshold int
	// Seed drives the deterministic backoff jitter.
	Seed int64
}

// Enabled reports whether the policy does anything at all.
func (p RetryPolicy) Enabled() bool { return p.MaxRetries > 0 }

// withDefaults fills the unset knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 8
	}
	return p
}

// Retryer executes operations under a RetryPolicy: transient failures
// (IsTransient) are retried up to the budget with capped exponential
// backoff and deterministic seeded jitter; permanent failures surface
// immediately. It is the retry core shared by ResilientStore and Phase
// 1's per-block source reads, so both layers emit the same store.retry
// events and count retries the same way.
type Retryer struct {
	pol     RetryPolicy
	ob      *obs.Observer
	retries *obs.Counter

	mu       sync.Mutex
	rng      *rand.Rand
	sleep    func(time.Duration) // test seam; defaults to time.Sleep
	nRetries int64
}

// NewRetryer returns a retryer for pol. A nil observer is valid (metrics
// and events are skipped).
func NewRetryer(pol RetryPolicy, ob *obs.Observer) *Retryer {
	pol = pol.withDefaults()
	return &Retryer{
		pol:     pol,
		ob:      ob,
		retries: ob.Counter("store.retries"),
		rng:     rand.New(rand.NewSource(pol.Seed)),
		sleep:   time.Sleep,
	}
}

// Policy returns the (defaults-filled) policy the retryer runs under.
func (r *Retryer) Policy() RetryPolicy { return r.pol }

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
	for attempt := 1; err != nil && IsTransient(err) && attempt <= r.pol.MaxRetries; attempt++ {
		d := r.backoff(attempt)
		r.note(opName, mode, part, attempt, d, err)
		r.sleep(d)
		err = op()
	}
	return err
}

// backoff returns the wait before retry `attempt` (1-based): exponential
// from BaseBackoff, capped at MaxBackoff, with seeded jitter in
// [d/2, d] so concurrent retries decorrelate reproducibly.
func (r *Retryer) backoff(attempt int) time.Duration {
	d := r.pol.MaxBackoff
	if attempt-1 < 20 { // beyond 2^20× base the cap always wins
		if e := r.pol.BaseBackoff << uint(attempt-1); e < d {
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

// ResilientStore wraps a Store with the recovery mechanisms a remote or
// failure-prone backend needs: a per-op retry budget for transient faults,
// capped exponential backoff with deterministic seeded jitter between the
// attempts, and a circuit breaker that trips to fail-fast once
// BreakerThreshold consecutive operations have failed permanently. It is
// the only layer of the Phase-2 stack that repeats a store operation.
// Retries and breaker trips are counted in Stats (monotonically —
// ResetStats does not zero them, so run totals reconcile with the trace)
// and emitted as store.retry / store.breaker events.
type ResilientStore struct {
	Store // the wrapped store; ResetStats and Close are its own
	pol   RetryPolicy
	retry *Retryer
	ob    *obs.Observer
	trips *obs.Counter

	mu          sync.Mutex
	consecutive int
	open        bool
	nTrips      int64
}

// Resilient wraps inner under pol. A nil observer is valid.
func Resilient(inner Store, pol RetryPolicy, ob *obs.Observer) *ResilientStore {
	return &ResilientStore{
		Store: inner,
		pol:   pol.withDefaults(),
		retry: NewRetryer(pol, ob),
		ob:    ob,
		trips: ob.Counter("store.breaker_trips"),
	}
}

// SetSleep replaces the backoff sleeper (test seam).
func (s *ResilientStore) SetSleep(f func(time.Duration)) {
	s.retry.mu.Lock()
	s.retry.sleep = f
	s.retry.mu.Unlock()
}

// record updates the breaker after an operation's final outcome: success
// closes the failure streak; a final failure (permanent, or transient
// with the budget spent) lengthens it and trips the breaker at the
// threshold. The breaker stays open until Reset — fail-fast is the point:
// once the store is known dead, burning every caller's full retry budget
// against it only delays the surfacing error.
func (s *ResilientStore) record(opName string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.consecutive = 0
		return
	}
	s.consecutive++
	if s.consecutive >= s.pol.BreakerThreshold && !s.open {
		s.open = true
		s.nTrips++
		s.trips.Inc()
		if s.ob.Tracing() {
			s.ob.Emit("store.breaker",
				obs.Str("state", "open"), obs.Str("op", opName),
				obs.Int("consecutive", s.consecutive))
		}
	}
}

// Reset closes the breaker and zeroes the failure streak, for callers
// that have independently established the store is healthy again.
func (s *ResilientStore) Reset() {
	s.mu.Lock()
	s.open = false
	s.consecutive = 0
	s.mu.Unlock()
}

// do is the one path every operation takes: fail fast while the breaker
// is open, then the attempt, retried while it fails transiently, then the
// breaker update, then the error annotated with the operation.
func (s *ResilientStore) do(opName string, mode, part int, op func() error) error {
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if open {
		return fmt.Errorf("%w: %s ⟨%d,%d⟩", ErrBreakerOpen, opName, mode, part)
	}
	err := s.retry.Do(opName, mode, part, op)
	s.record(opName, err)
	if err != nil {
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
// monotonic recovery counters (its ResetStats zeroes only the former).
func (s *ResilientStore) Stats() Stats {
	st := s.Store.Stats()
	st.Retries += s.retry.Retries()
	s.mu.Lock()
	st.BreakerTrips += s.nTrips
	s.mu.Unlock()
	return st
}
