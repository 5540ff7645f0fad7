package blockstore

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"twopcp/internal/obs"
)

// RetryPolicy configures the resilience layer: how many times a transient
// fault is retried and how backoff grows between attempts. The zero value
// disables the layer (Enabled() == false); MaxRetries > 0 turns it on with
// sane defaults for the unset knobs.
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

// Resilient wraps inner under pol. A nil observer is valid.
func Resilient(inner Store, pol RetryPolicy, ob *obs.Observer) *ResilientStore {
	return &ResilientStore{Store: inner, retry: NewRetryer(pol, ob)}
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
