package twopcp

import (
	"io"
	"time"

	"twopcp/internal/obs"
)

// Telemetry types, re-exported from the internal obs package so library
// users configure observability through the same single import. See the
// "Telemetry contract" section of the package documentation: telemetry
// observes a run but never influences it, so factors, FitTrace and swap
// counts are bit-identical with tracing on or off, and the trace's event
// multiset (minus wall-clock timestamps) is identical across worker
// counts and prefetch depths.
type (
	// Observer is the telemetry handle passed via Options.Observer. Any
	// subset of its sinks (Trace, Metrics, OnEvent) may be set; nil is
	// the fully disabled — and essentially free — default.
	Observer = obs.Observer
	// Recorder writes trace events as JSONL, safe for concurrent use.
	Recorder = obs.Recorder
	// Registry is a metrics registry of counters, gauges and histograms.
	Registry = obs.Registry
	// Event is one structured trace record.
	Event = obs.Event
	// Field is one typed key/value payload entry of an Event.
	Field = obs.Field
	// FanOut broadcasts an event stream to dynamically attached
	// subscribers — the bridge between the single synchronous
	// Observer.OnEvent callback and the many listeners a long-running
	// service needs (cmd/twopcpd streams one SSE feed per watching client
	// off it). Install FanOut.Publish as the OnEvent sink; Subscribe
	// attaches a listener. Publish never blocks the run: subscribers that
	// fall behind drop events (counted per subscriber) instead of
	// queueing without bound, preserving the contract that telemetry
	// observes a run but never influences it.
	FanOut = obs.FanOut
)

// NewFanOut returns an empty event fan-out with no subscribers.
func NewFanOut() *FanOut { return obs.NewFanOut() }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewRecorder returns a trace recorder writing JSONL to w. The caller
// owns w; Close flushes but does not close it.
func NewRecorder(w io.Writer) *Recorder { return obs.NewRecorder(w) }

// OpenTrace opens (or creates) a trace file in append mode — a resumed
// run pointed at the same file extends the recorded event stream rather
// than truncating the pre-crash history.
func OpenTrace(path string) (*Recorder, error) { return obs.OpenTrace(path) }

// ValidateTraceLine checks one JSONL trace line against the event
// schema: known event name, numeric timestamp, all required fields
// present with their declared types, no undeclared fields.
func ValidateTraceLine(line []byte) error { return obs.ValidateLine(line) }

// RunStats aggregates a run's operational statistics: wall-clock split,
// Phase-1 work, Phase-2 buffer behavior and store traffic. It reports
// what the run did, never what it computed — the numerical outputs stay
// in Result proper. The JSON form is the "run_stats" object of the CLI's
// -json output; durations marshal as integer nanoseconds.
type RunStats struct {
	// Phase0Time, Phase1Time and Phase2Time split the wall clock
	// (Phase0Time is zero without an accelerator). Wall time is the one
	// field that legitimately differs between otherwise identical runs.
	Phase0Time time.Duration `json:"phase0_ns,omitempty"`
	Phase1Time time.Duration `json:"phase1_ns"`
	Phase2Time time.Duration `json:"phase2_ns"`
	// Accelerated reports whether Phase 0 actually produced a warm start
	// (false without an accelerator or when it fell back to brute force).
	Accelerated bool `json:"accelerated,omitempty"`
	// Blocks is the number of grid blocks Phase 1 decomposed.
	Blocks int `json:"blocks"`
	// Phase1Sweeps totals the per-block ALS sweeps actually computed;
	// blocks restored from a checkpoint contribute 0 (nothing was
	// recomputed), so a resumed run reports fewer sweeps than a fresh
	// one while producing bit-identical factors.
	Phase1Sweeps int `json:"phase1_sweeps"`
	// Swaps is the number of data units fetched into the Phase-2 buffer
	// (the paper's I/O metric); SwapsPerIter normalizes by virtual
	// iterations. Both are bit-deterministic across worker counts and
	// prefetch depths.
	Swaps        int64   `json:"swaps"`
	SwapsPerIter float64 `json:"swaps_per_iter"`
	// BufferHits counts acquisitions served without store I/O;
	// BufferHitRate = BufferHits / (BufferHits + Swaps).
	BufferHits    int64   `json:"buffer_hits"`
	BufferHitRate float64 `json:"buffer_hit_rate"`
	// Evictions and WriteBacks count units dropped from the buffer and
	// dirty units written back to the store.
	Evictions  int64 `json:"evictions"`
	WriteBacks int64 `json:"write_backs"`
	// BytesRead and BytesWritten count the bytes the store moved during
	// Phase-2 refinement (setup seeding is excluded): a swap reads a
	// whole unit, A(i)_(ki) and the slab's U(i)_l; a write-back writes
	// only A(i)_(ki), the part Phase 2 changes. BytesRead may include a
	// few extra reads at PrefetchDepth > 0, from prefetches issued for
	// steps that never ran; everything else here is depth-invariant.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// Retries counts transient-fault retries absorbed by the resilience
	// layer across both phases (0 when Options.MaxRetries is 0 or no
	// faults occurred). Unlike every counter above it is NOT part of the
	// determinism contract — faults are environmental — but it reconciles
	// exactly with the store.retry events in a single-process trace
	// (cmd/tracecheck -run-stats checks this).
	Retries int64 `json:"retries"`
}
