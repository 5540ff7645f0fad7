package blockstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"twopcp/internal/obs"
)

// noSleep replaces backoff sleeping in tests.
func noSleep(time.Duration) {}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrap: %w", ErrTransient), true},
		{fmt.Errorf("wrap: %w: %w", ErrTransient, errors.New("io")), true},
		{fmt.Errorf("wrap: %w", ErrInjected), false},
		{fmt.Errorf("wrap: %w", ErrNotFound), false},
		{fmt.Errorf("wrap: %w", ErrCorrupt), false},
		{errors.New("unknown"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestResilientHealsTransientFaults: a sticky read outage shorter than the
// retry budget heals invisibly — the caller sees success and the inner
// store's I/O counters count only the successful operations.
func TestResilientHealsTransientFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mem := NewMemStore()
	faulty := NewFaultyStore(mem)
	rs := Resilient(faulty, 5, 7, nil)
	rs.SetSleep(noSleep)

	u := testUnit(rng)
	if err := rs.Put(u); err != nil {
		t.Fatal(err)
	}
	// Reads 1..3 fail transiently; retries 1..3 of the first Get absorb
	// them (read 4 succeeds).
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 3})
	got, err := rs.Get(u.Mode, u.Part)
	if err != nil {
		t.Fatalf("Get through outage: %v", err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("Get returned different unit")
	}
	st := rs.Stats()
	if st.Retries != 3 {
		t.Fatalf("Stats.Retries = %d, want 3", st.Retries)
	}
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("successful-op counters polluted by retries: Reads=%d Writes=%d, want 1/1", st.Reads, st.Writes)
	}
}

// TestResilientBudgetExhausted: an outage longer than the budget surfaces
// the transient error with full context after MaxRetries+1 attempts.
func TestResilientBudgetExhausted(t *testing.T) {
	mem := NewMemStore()
	faulty := NewFaultyStore(mem)
	rs := Resilient(faulty, 2, 7, nil)
	rs.SetSleep(noSleep)
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 1 << 40})

	_, err := rs.Get(3, 4)
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	reads, _ := faulty.Fails()
	if reads != 3 { // initial attempt + 2 retries
		t.Fatalf("attempts = %d, want 3", reads)
	}
	if got := rs.Stats().Retries; got != 2 {
		t.Fatalf("Stats.Retries = %d, want 2", got)
	}
}

// TestResilientPermanentNotRetried: permanent faults surface immediately.
func TestResilientPermanentNotRetried(t *testing.T) {
	mem := NewMemStore()
	faulty := NewFaultyStore(mem)
	rs := Resilient(faulty, 5, 7, nil)
	rs.SetSleep(noSleep)
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 10, Permanent: true})

	_, err := rs.Get(0, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	reads, _ := faulty.Fails()
	if reads != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries of a permanent fault)", reads)
	}
	// ErrNotFound is permanent too — a missing unit must not burn budget.
	faulty.SetPlan(FaultPlan{})
	if _, err := rs.Get(9, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing unit: err = %v, want ErrNotFound", err)
	}
}

// TestResilientEveryOpGetsFullBudget: operations that failed past their
// budget do not shorten a later operation's. Eight Gets in a row exhaust
// theirs against a read outage; the ninth, after the outage, returns the
// unit, and every retry was traced.
func TestResilientEveryOpGetsFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	retryEvents := 0
	ob := &obs.Observer{OnEvent: func(e obs.Event) {
		if e.Name == "store.retry" {
			retryEvents++
		}
	}}
	mem := NewMemStore()
	faulty := NewFaultyStore(mem)
	rs := Resilient(faulty, 1, 7, ob)
	rs.SetSleep(noSleep)
	u := testUnit(rng)
	if err := rs.Put(u); err != nil {
		t.Fatal(err)
	}
	// Reads 1..16 fail transiently: two attempts each for eight Gets.
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 16})
	for i := 0; i < 8; i++ {
		if _, err := rs.Get(u.Mode, u.Part); !IsTransient(err) {
			t.Fatalf("Get %d in the outage: err = %v, want transient", i+1, err)
		}
	}
	got, err := rs.Get(u.Mode, u.Part)
	if err != nil {
		t.Fatalf("Get after the outage: %v", err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("Get returned different unit")
	}
	if st := rs.Stats(); st.Retries != 8 || int(st.Retries) != retryEvents {
		t.Fatalf("Stats.Retries = %d, store.retry events = %d, want 8 each", st.Retries, retryEvents)
	}
}

// TestRetryEventsAndCounters: store.retry events and the store.retries
// counter reconcile exactly with Stats.Retries, and ResetStats leaves the
// monotonic retry count alone.
func TestRetryEventsAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	events := map[string]int{}
	reg := obs.NewRegistry()
	ob := &obs.Observer{
		Metrics: reg,
		OnEvent: func(e obs.Event) {
			mu.Lock()
			events[e.Name]++
			mu.Unlock()
		},
	}
	mem := NewMemStore()
	faulty := NewFaultyStore(mem)
	rs := Resilient(faulty, 2, 7, ob)
	rs.SetSleep(noSleep)
	u := testUnit(rng)
	if err := rs.Put(u); err != nil {
		t.Fatal(err)
	}
	// Two transient reads healed by retries, then an outage that exhausts
	// two budgets.
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 2})
	if _, err := rs.Get(u.Mode, u.Part); err != nil {
		t.Fatal(err)
	}
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 1 << 40})
	for i := 0; i < 2; i++ {
		if _, err := rs.Get(u.Mode, u.Part); err == nil {
			t.Fatal("expected failure")
		}
	}
	st := rs.Stats()
	if st.Retries != 6 { // 2 healed + 2×2 exhausted
		t.Fatalf("Stats.Retries = %d, want 6", st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if events["store.retry"] != int(st.Retries) {
		t.Fatalf("store.retry events = %d, want %d (reconcile with Stats.Retries)", events["store.retry"], st.Retries)
	}
	if got := reg.Counter("store.retries").Load(); got != st.Retries {
		t.Fatalf("store.retries counter = %d, want %d", got, st.Retries)
	}

	rs.ResetStats()
	if after := rs.Stats(); after.Retries != st.Retries {
		t.Fatalf("ResetStats zeroed the monotonic retry counter: %+v", after)
	}
}

// TestBackoffDeterministicAndBounded: same seed, same backoff sequence;
// every wait lies in [base·2^(k-1)/2, min(cap, base·2^(k-1))].
func TestBackoffDeterministicAndBounded(t *testing.T) {
	seq := func() []time.Duration {
		r := NewRetryer(10, 42, nil)
		var ds []time.Duration
		for a := 1; a <= 10; a++ {
			ds = append(ds, r.backoff(a))
		}
		return ds
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff not deterministic at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
		exp := min(baseBackoff<<uint(i), maxBackoff)
		if a[i] < exp/2 || a[i] > exp {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", i+1, a[i], exp/2, exp)
		}
	}
}

// TestFaultPlanDeterministic: the same seed injects faults at the same op
// indices.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() []int64 {
		mem := NewMemStore()
		faulty := NewFaultyStore(mem)
		faulty.SetPlan(FaultPlan{Seed: 5, ReadRate: 0.3})
		var failedAt []int64
		for i := int64(1); i <= 100; i++ {
			before, _ := faulty.Fails()
			faulty.Get(9, 9) // misses are fine; we only watch injection
			if after, _ := faulty.Fails(); after > before {
				failedAt = append(failedAt, i)
			}
		}
		return failedAt
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("0.3 read rate injected nothing in 100 ops")
	}
	if len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d at op %d vs %d", i, a[i], b[i])
		}
	}
}
