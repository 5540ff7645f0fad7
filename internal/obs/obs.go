// Package obs is the run-telemetry layer of the pipeline: a structured
// trace of typed events (JSONL through a worker-safe recorder), a metrics
// registry (counters, gauges, fixed-bucket histograms snapshotting to JSON
// and Prometheus text format), and the Observer handle both phases thread
// through their hot paths. It has no dependencies outside the standard
// library.
//
// # Cost contract
//
// A nil *Observer is the disabled state and must cost ~nothing: every
// method is nil-receiver safe, Tracing() is a two-word check callers guard
// event construction behind (so no field slices are allocated when no one
// is listening), and subsystems bind *Counter handles once at setup so hot
// paths pay a single nil check plus an atomic add.
//
// # Determinism contract
//
// Telemetry observes the run, it never influences it: no code path reads
// an observer to make a decision, so results are bit-identical with
// tracing on or off. Events are emitted only at points whose occurrence is
// itself deterministic (buffer replacement decisions under the manager
// mutex, per-block Phase-1 completions, schedule steps), so the multiset
// of events minus the wall-clock ts/dur fields is identical across
// Workers, KernelWorkers, IOWorkers and PrefetchDepth. Operations whose
// *count* legitimately varies with concurrency or timing (prefetch-issued
// store reads, batched manifest rewrites, the checkpoint fsyncs group
// commit issues — runstate.syncs and runstate.sync_us) are metrics-only,
// and no check that compares counters across an interruption may count
// on them. checkpoint.write
// events carry real record sizes, which embed I/O counters for phase2.ckpt
// and therefore may differ across prefetch depths; they are exempt from
// the cross-configuration guarantee. store.retry events record recovery
// from faults whose timing is inherently nondeterministic, so they too
// are exempt — their invariant is instead that retries never change what
// the run computes (see the blockstore package) and that their count
// reconciles with Stats.Retries.
package obs

import "time"

// Event is one trace record: a name from the Schema, a wall-clock
// timestamp, an optional duration (spans), and typed payload fields.
type Event struct {
	// Name identifies the event type (e.g. "buffer.fetch"); see Schema.
	Name string
	// TS is the wall-clock emission time in Unix nanoseconds.
	TS int64
	// Dur is the span duration in nanoseconds; 0 for point events.
	Dur int64
	// Fields is the typed payload, serialized in order.
	Fields []Field
}

// Field kinds.
const (
	kindInt = iota
	kindF64
	kindStr
	kindBool
)

// Field is one typed key/value payload entry of an Event.
type Field struct {
	Key  string
	kind uint8
	i    int64
	f    float64
	s    string
}

// Int returns an integer field.
func Int(key string, v int) Field { return Field{Key: key, kind: kindInt, i: int64(v)} }

// I64 returns an int64 field.
func I64(key string, v int64) Field { return Field{Key: key, kind: kindInt, i: v} }

// F64 returns a float64 field (serialized with full round-trip precision).
func F64(key string, v float64) Field { return Field{Key: key, kind: kindF64, f: v} }

// Str returns a string field.
func Str(key, v string) Field { return Field{Key: key, kind: kindStr, s: v} }

// Bool returns a boolean field.
func Bool(key string, v bool) Field {
	f := Field{Key: key, kind: kindBool}
	if v {
		f.i = 1
	}
	return f
}

// Observer is the telemetry handle threaded through a run. Any subset of
// the three sinks may be set; configure it before the run starts and do
// not mutate it while the run is in flight. The zero value and the nil
// pointer are both valid, fully disabled observers.
type Observer struct {
	// Trace receives every event as a JSONL line.
	Trace *Recorder
	// Metrics is the registry subsystems bind counters/gauges against.
	Metrics *Registry
	// OnEvent, when non-nil, receives every event synchronously. It may be
	// called from multiple goroutines at once and must be internally
	// synchronized; it must not block, or it stalls the worker that
	// emitted the event.
	OnEvent func(Event)
}

// Tracing reports whether events have any listener. Callers must guard
// Emit behind it so field construction costs nothing when disabled.
func (o *Observer) Tracing() bool {
	return o != nil && (o.Trace != nil || o.OnEvent != nil)
}

// Emit records a point event with the current wall-clock timestamp.
func (o *Observer) Emit(name string, fields ...Field) {
	o.emit(Event{Name: name, TS: time.Now().UnixNano(), Fields: fields})
}

// EmitSpan records a completed span: ts is the span start, dur its length.
func (o *Observer) EmitSpan(name string, start time.Time, fields ...Field) {
	o.emit(Event{
		Name:   name,
		TS:     start.UnixNano(),
		Dur:    int64(time.Since(start)),
		Fields: fields,
	})
}

func (o *Observer) emit(e Event) {
	if o == nil {
		return
	}
	if o.Trace != nil {
		o.Trace.Record(e)
	}
	if o.OnEvent != nil {
		o.OnEvent(e)
	}
}

// Counter returns the named counter, or nil — a valid, disabled handle —
// when no registry is attached; subsystems bind the handle once.
func (o *Observer) Counter(name string) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil when no registry is attached.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, or nil when no registry is
// attached.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}
