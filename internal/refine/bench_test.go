package refine

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/grid"
	"twopcp/internal/obs"
	"twopcp/internal/phase1"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// benchPhase1 builds one Phase-1 result for the prefetch benchmark.
func benchPhase1(b *testing.B) *phase1.Result {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandomDense(rng, 12, 12, 12)
	p := grid.UniformCube(3, 12, 4)
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		b.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 4, MaxIters: 2, Tol: 1e-3, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return p1
}

// BenchmarkPhase2Prefetch measures the Phase-2 wall clock of the
// synchronous engine versus prefetch over a latency-injected store (2ms
// per unit read and write, the paper's footnote-5 regime where a swap
// dwarfs the in-memory work) at BufferFraction 0.5. The work is identical
// in both variants — same update order, same swaps, same factors
// (TestPrefetchingIsBitForBitEquivalent) — so the ratio isolates how much
// read latency prefetch hides; write-backs are inline in both. Acceptance:
// prefetch ≥1.1× faster (gated by cmd/benchgate). What durable
// checkpoints cost on top is refine_durable's runstate.ckpt_ms in the
// end-to-end benchmark, over a real FileStore.
//
// Recorded baselines live in BENCH_phase2_prefetch.json.
func BenchmarkPhase2Prefetch(b *testing.B) {
	p1 := benchPhase1(b)
	run := func(b *testing.B, depth, workers int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := New(Config{
				Phase1:   p1,
				Store:    blockstore.WithLatency(blockstore.NewMemStore(), 2*time.Millisecond, 2*time.Millisecond),
				Schedule: schedule.ZOrder, Policy: buffer.LRU,
				BufferFraction:  0.5,
				MaxVirtualIters: 16, // one full Z-order cycle (64 blocks, ΣK=12)
				Tol:             math.Inf(-1),
				Seed:            5,
				PrefetchDepth:   depth,
				IOWorkers:       workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sync", func(b *testing.B) { run(b, 0, 0) })
	b.Run("prefetch", func(b *testing.B) { run(b, 2, 4) })
}

// BenchmarkObsOverhead measures what telemetry costs the Phase-2 engine
// on a pure in-memory run (no injected latency, so nothing hides the
// overhead):
//
//   - off:      nil *obs.Observer — the disabled state everyone who never
//     touches telemetry pays for. Acceptance: <= 2% over what the engine
//     cost before the hooks existed, which CI approximates by gating
//     counters against off (a nil check is strictly cheaper than a bound
//     counter) and pinning off's allocation count.
//   - counters: a live metrics registry, no trace — bound atomic counters
//     on every fetch/evict/update. Acceptance: <= 2% over off (+ the
//     measurement margin in BENCH_obs.json; gated by cmd/benchgate).
//   - trace:    metrics plus a Recorder writing every event to io.Discard
//     — the full event-serialization path minus the disk. Bounded against
//     the recorded baseline, not a fixed acceptance: trace cost is real
//     and opt-in.
//
// Swap counts and factors are the same in all three
// (TestTracingDoesNotChangeResults). Recorded baselines live in
// BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	p1 := benchPhase1(b)
	run := func(b *testing.B, ob *obs.Observer) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := New(Config{
				Phase1:   p1,
				Store:    blockstore.NewMemStore(),
				Schedule: schedule.ZOrder, Policy: buffer.LRU,
				BufferFraction: 0.5,
				// 8 full Z-order cycles: long enough (~15 ms/op) that the
				// overhead ratio rises above scheduler jitter on shared
				// runners.
				MaxVirtualIters: 128,
				Tol:             math.Inf(-1),
				Seed:            5,
				Obs:             ob,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		run(b, nil)
	})
	b.Run("counters", func(b *testing.B) {
		run(b, &obs.Observer{Metrics: obs.NewRegistry()})
	})
	b.Run("trace", func(b *testing.B) {
		run(b, &obs.Observer{
			Metrics: obs.NewRegistry(),
			Trace:   obs.NewRecorder(io.Discard),
		})
	})
}

// BenchmarkResilienceOverhead measures what the retry layer costs the
// Phase-2 engine on HEALTHY storage (a pure in-memory run, so nothing
// hides the wrapper):
//
//   - off:   the store used directly — the disabled state everyone who
//     never enables retries pays for (nothing wraps anything).
//   - retry: the store behind blockstore.Resilient with a live retry
//     budget, exactly how twopcp -retry wires it, but zero injected
//     faults — so every op takes the first-attempt fast path. Acceptance:
//     <= 2% over off (+ the measurement margin in BENCH_resilience.json;
//     gated by cmd/benchgate as resilience-overhead).
//
// The fault-ABSORBING path is covered functionally (scripts/chaos.sh and
// the chaos tests assert bit-identical output, swap counts included); this
// benchmark pins only the price of having the safety net installed.
//
// Recorded baselines live in BENCH_resilience.json.
func BenchmarkResilienceOverhead(b *testing.B) {
	p1 := benchPhase1(b)
	pol := blockstore.RetryPolicy{MaxRetries: 3, Seed: 1}
	run := func(b *testing.B, resilient bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := Config{
				Phase1:   p1,
				Store:    blockstore.NewMemStore(),
				Schedule: schedule.ZOrder, Policy: buffer.LRU,
				BufferFraction: 0.5,
				// 8 full Z-order cycles, same workload as the obs
				// benchmark: long enough that the overhead ratio rises
				// above scheduler jitter on shared runners.
				MaxVirtualIters: 128,
				Tol:             math.Inf(-1),
				Seed:            5,
			}
			if resilient {
				cfg.Store = blockstore.Resilient(cfg.Store, pol, nil)
			}
			eng, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := eng.Run()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.StoreStats.Retries != 0 {
				b.Fatalf("%d retries on healthy storage", res.StoreStats.Retries)
			}
			b.StartTimer()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("retry", func(b *testing.B) { run(b, true) })
}
