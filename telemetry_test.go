package twopcp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"twopcp"
)

// collector gathers the deterministic form of every event an observer
// sees. OnEvent may be called from many goroutines, so it locks.
type collector struct {
	mu     sync.Mutex
	canons []string
}

func (c *collector) observe(e twopcp.Event) {
	c.mu.Lock()
	c.canons = append(c.canons, e.Canon())
	c.mu.Unlock()
}

// sortedCanons returns the collected multiset in a comparable order.
func (c *collector) sortedCanons() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.canons...)
	sort.Strings(out)
	return out
}

// eventNames returns the distinct event names collected.
func (c *collector) eventNames() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := map[string]int{}
	for _, canon := range c.canons {
		name := canon[len(`{"ev":"`):]
		names[name[:strings.IndexByte(name, '"')]]++
	}
	return names
}

// TestTraceDeterminism is the telemetry half of the determinism contract:
// the multiset of events minus their wall-clock timestamps is identical
// across Phase-1 worker counts and Phase-2 prefetch depths. It runs the
// golden fixture through the tiled front-end at every combination and
// compares the sorted Event.Canon() streams byte-for-byte.
func TestTraceDeterminism(t *testing.T) {
	tiledPath := filepath.Join("testdata", "golden.tptl")
	type config struct{ workers, prefetch int }
	configs := []config{
		{1, 0}, {2, 0}, {7, 0},
		{1, 2}, {2, 2}, {7, 2},
	}
	var baseline []string
	var baseDump string
	for _, cfg := range configs {
		name := fmt.Sprintf("workers=%d_prefetch=%d", cfg.workers, cfg.prefetch)
		opts := goldenOpts(twopcp.ConstraintNone, 0)
		opts.Workers = cfg.workers
		opts.PrefetchDepth = cfg.prefetch
		col := &collector{}
		opts.Observer = &twopcp.Observer{OnEvent: col.observe}
		res, err := twopcp.DecomposeTiledFile(tiledPath, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canons := col.sortedCanons()
		if len(canons) == 0 {
			t.Fatalf("%s: no events collected", name)
		}
		dump := goldenDump(res)
		if baseline == nil {
			baseline, baseDump = canons, dump
			continue
		}
		if dump != baseDump {
			t.Errorf("%s: result drifted from the workers=1 prefetch=0 run", name)
		}
		if len(canons) != len(baseline) {
			t.Fatalf("%s: %d events, baseline has %d", name, len(canons), len(baseline))
		}
		for i := range canons {
			if canons[i] != baseline[i] {
				t.Fatalf("%s: event multiset diverged from baseline:\n got %s\nwant %s",
					name, canons[i], baseline[i])
			}
		}
	}
}

// TestTracingDoesNotChangeResults checks the other half of the contract:
// a fully-instrumented run (trace + metrics + callback) produces the
// bit-identical factor dump of an uninstrumented one, and every line it
// writes validates against the event schema.
func TestTracingDoesNotChangeResults(t *testing.T) {
	x := goldenTensor()
	opts := goldenOpts(twopcp.ConstraintNone, 0)
	plain, err := twopcp.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	col := &collector{}
	opts.Observer = &twopcp.Observer{
		Trace:   twopcp.NewRecorder(&buf),
		Metrics: twopcp.NewRegistry(),
		OnEvent: col.observe,
	}
	traced, err := twopcp.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := opts.Observer.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	if goldenDump(traced) != goldenDump(plain) {
		t.Error("tracing changed the run's numerics")
	}
	if traced.Fit != plain.Fit {
		t.Errorf("tracing changed Fit: %x vs %x", traced.Fit, plain.Fit)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("trace is empty")
	}
	for i, line := range lines {
		if err := twopcp.ValidateTraceLine(line); err != nil {
			t.Errorf("trace line %d: %v\n%s", i+1, err, line)
		}
	}
	// The callback and the recorder are fed the same stream.
	if got, want := len(col.sortedCanons()), len(lines); got != want {
		t.Errorf("OnEvent saw %d events, trace has %d lines", got, want)
	}
	// Lifecycle and per-phase events must all be present on a dense run.
	names := col.eventNames()
	for _, want := range []string{"run.start", "phase1.block", "phase2.step", "phase2.iter", "buffer.fetch", "run.done"} {
		if names[want] == 0 {
			t.Errorf("no %s events in trace (census: %v)", want, names)
		}
	}
	if got := names["run.start"]; got != 1 {
		t.Errorf("%d run.start events, want 1", got)
	}
	if got := names["run.done"]; got != 1 {
		t.Errorf("%d run.done events, want 1", got)
	}
	// 2 partitions per mode on a 3-mode tensor = 8 grid blocks.
	if got := names["phase1.block"]; got != 8 {
		t.Errorf("%d phase1.block events, want 8", got)
	}
}

// lockedBuffer is a trace sink the test may read while the run writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunStartIsFlushedAtOnce: by the time the run records its second
// event, the run.start line has left the recorder's 64 KB buffer. A run
// killed early — before that buffer first fills — must not lose the line
// a resumed run's appended trace is read against.
func TestRunStartIsFlushedAtOnce(t *testing.T) {
	var sink lockedBuffer
	var once sync.Once
	opts := goldenOpts(twopcp.ConstraintNone, 0)
	opts.Observer = &twopcp.Observer{
		Trace: twopcp.NewRecorder(&sink),
		OnEvent: func(e twopcp.Event) {
			if e.Name == "run.start" {
				return
			}
			once.Do(func() {
				if got := sink.String(); !strings.HasPrefix(got, `{"ev":"run.start",`) || !strings.HasSuffix(got, "\n") {
					t.Errorf("at the first %s event the trace sink holds %q, want the complete run.start line", e.Name, got)
				}
			})
		},
	}
	if _, err := twopcp.Decompose(goldenTensor(), opts); err != nil {
		t.Fatal(err)
	}
	if err := opts.Observer.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sink.String(), `"ev":"run.start"`); n != 1 {
		t.Errorf("%d run.start lines in the trace, want 1", n)
	}
}

// TestMetricsMatchRunStats cross-checks the registry against the run's
// own accounting on a fresh synchronous run: the counters the subsystems
// maintain must agree exactly with the RunStats the pipeline reports, and
// the final run.* gauges must mirror RunStats verbatim.
func TestMetricsMatchRunStats(t *testing.T) {
	reg := twopcp.NewRegistry()
	opts := goldenOpts(twopcp.ConstraintNone, 0)
	opts.Observer = &twopcp.Observer{Metrics: reg}
	res, err := twopcp.DecomposeTiledFile(filepath.Join("testdata", "golden.tptl"), opts)
	if err != nil {
		t.Fatal(err)
	}

	counters := []struct {
		name string
		want int64
	}{
		{"buffer.fetches", res.RunStats.Swaps},
		{"buffer.hits", res.RunStats.BufferHits},
		{"buffer.evictions", res.RunStats.Evictions},
		{"buffer.write_backs", res.RunStats.WriteBacks},
		{"phase1.blocks_done", int64(res.RunStats.Blocks)},
		{"phase1.sweeps", int64(res.RunStats.Phase1Sweeps)},
	}
	for _, c := range counters {
		if got := reg.Counter(c.name).Load(); got != c.want {
			t.Errorf("counter %s = %d, RunStats says %d", c.name, got, c.want)
		}
	}
	// The registry's store counters are monotonic over the whole run —
	// they also see the final factor-assembly reads that RunStats.BytesRead
	// (Phase-2 refinement traffic only) excludes — so the counter bounds
	// the stat from above; the exact figure is the run.bytes_read gauge.
	if got := reg.Counter("blockstore.bytes_read").Load(); got < res.RunStats.BytesRead {
		t.Errorf("counter blockstore.bytes_read = %d < RunStats.BytesRead %d", got, res.RunStats.BytesRead)
	}

	gauges := []struct {
		name string
		want float64
	}{
		{"run.swaps", float64(res.RunStats.Swaps)},
		{"run.buffer_hit_rate", res.RunStats.BufferHitRate},
		{"run.bytes_read", float64(res.RunStats.BytesRead)},
		{"run.bytes_written", float64(res.RunStats.BytesWritten)},
		// phase2.fit tracks the surrogate fit, whose last value is the
		// final FitTrace entry (the true fit in Result.Fit is computed
		// against the input after the engine returns).
		{"phase2.fit", res.FitTrace[len(res.FitTrace)-1]},
		{"phase2.virtual_iters", float64(res.VirtualIters)},
	}
	for _, g := range gauges {
		if got := reg.Gauge(g.name).Load(); got != g.want {
			t.Errorf("gauge %s = %v, RunStats says %v", g.name, got, g.want)
		}
	}

	if res.RunStats.BufferHits > 0 {
		wantRate := float64(res.RunStats.BufferHits) /
			float64(res.RunStats.BufferHits+res.RunStats.Swaps)
		if res.RunStats.BufferHitRate != wantRate {
			t.Errorf("BufferHitRate = %v, want hits/(hits+fetches) = %v",
				res.RunStats.BufferHitRate, wantRate)
		}
	}

	// The Prometheus exposition of the same registry must carry the same
	// totals.
	text := string(reg.PrometheusText())
	wantLine := fmt.Sprintf("twopcp_buffer_fetches_total %d\n", res.RunStats.Swaps)
	if !strings.Contains(text, wantLine) {
		t.Errorf("Prometheus exposition missing %q", strings.TrimSpace(wantLine))
	}
}

// TestResumeNeverRewindsCounters: metric counters belong to the process,
// not to the checkpoint. One registry is shared — as twopcpd shares one
// among its jobs — by a run drained mid-Phase 2 and its resume, and a
// counter the pipeline never touches is bumped before the run and again
// between the drain and the resume. The resume must leave that counter as
// it found it and read no counter lower than before it, while the result
// stays bit-identical to an uninterrupted run.
func TestResumeNeverRewindsCounters(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)
	plain, err := twopcp.Decompose(x, resumeOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	if plain.VirtualIters <= 3 {
		t.Fatalf("the run ends after %d virtual iterations: no drain at the third lands mid-Phase 2", plain.VirtualIters)
	}

	reg := twopcp.NewRegistry()
	submitted := reg.Counter("jobs.submitted")
	submitted.Inc()
	dir := filepath.Join(t.TempDir(), "ckpt")
	stop := make(chan struct{})
	iters := 0
	opts := resumeOpts(dir)
	opts.CheckpointEverySteps = 1
	opts.Stop = stop
	opts.Observer = &twopcp.Observer{Metrics: reg, OnEvent: func(e twopcp.Event) {
		if e.Name == "phase2.iter" {
			if iters++; iters == 3 {
				close(stop)
			}
		}
	}}
	if _, err := twopcp.Decompose(x, opts); !errors.Is(err, twopcp.ErrInterrupted) {
		t.Fatalf("drained run: %v, want ErrInterrupted", err)
	}
	submitted.Inc()
	before := counterValues(t, reg)

	reOpts := resumeOpts(dir)
	reOpts.Resume = true
	reOpts.Observer = &twopcp.Observer{Metrics: reg}
	res, err := twopcp.Decompose(x, reOpts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	sameResult(t, "drained-resume", res, plain)
	if got := submitted.Load(); got != 2 {
		t.Errorf("jobs.submitted = %d after the resume, want 2", got)
	}
	after := counterValues(t, reg)
	for name, v := range before {
		if after[name] < v {
			t.Errorf("counter %s went from %d to %d across the resume", name, v, after[name])
		}
	}
}

// counterValues reads every counter of reg from its JSON snapshot.
func counterValues(t *testing.T, reg *twopcp.Registry) map[string]int64 {
	t.Helper()
	js, err := reg.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestTraceCheckpointEvents runs a durable decomposition with tracing on
// and checks the durability events: checkpoint.write events during the
// run, and a no-op resume of the completed run emitting checkpoint.resume
// at stage done plus a fresh run.done.
func TestTraceCheckpointEvents(t *testing.T) {
	dir := t.TempDir()
	opts := goldenOpts(twopcp.ConstraintNone, 0)
	opts.Checkpoint = filepath.Join(dir, "ckpt")
	col := &collector{}
	opts.Observer = &twopcp.Observer{OnEvent: col.observe}
	first, err := twopcp.Decompose(goldenTensor(), opts)
	if err != nil {
		t.Fatal(err)
	}
	names := col.eventNames()
	if names["checkpoint.write"] == 0 {
		t.Errorf("durable run emitted no checkpoint.write events (census: %v)", names)
	}
	if names["checkpoint.resume"] != 0 {
		t.Errorf("fresh run emitted checkpoint.resume (census: %v)", names)
	}

	resumeCol := &collector{}
	opts.Resume = true
	opts.Observer = &twopcp.Observer{OnEvent: resumeCol.observe}
	again, err := twopcp.Decompose(goldenTensor(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if goldenDump(again) != goldenDump(first) {
		t.Error("no-op resume returned different factors")
	}
	rnames := resumeCol.eventNames()
	if rnames["checkpoint.resume"] != 1 {
		t.Errorf("resume emitted %d checkpoint.resume events, want 1 (census: %v)",
			rnames["checkpoint.resume"], rnames)
	}
	if rnames["run.done"] != 1 {
		t.Errorf("resume emitted %d run.done events, want 1", rnames["run.done"])
	}
}
