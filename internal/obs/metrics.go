package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Like the Observer
// that hands it out, a nil handle is valid and disabled: the writing
// methods of Counter, Gauge and Histogram return on a nil receiver, so
// subsystems bind handles once and use them unguarded.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic float64 holding a last-written value (a level, not
// an accumulation: current fit, buffer residents, sweep number).
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket layout every histogram shares: powers
// of 4 from 1 to 4^15 (≈1.07e9), wide enough for byte counts and
// nanosecond latencies alike. A fixed layout keeps snapshots from
// different runs and subsystems directly comparable and the Prometheus
// exposition stable.
var histBuckets = func() [16]float64 {
	var b [16]float64
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Histogram is a fixed-bucket distribution (see histBuckets) with an
// exact count and sum. Observations above the last bucket land in the
// implicit +Inf bucket (tracked by count).
type Histogram struct {
	counts [len(histBuckets)]atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, le := range histBuckets {
		if v <= le {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	// LE are the bucket upper bounds; Counts are per-bucket (not
	// cumulative) observation counts, same indexing.
	LE     []float64 `json:"le"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Registry is a process-local metrics registry. Metric handles are
// get-or-create by name and never removed, so subsystems bind them once
// at setup; reads on the handles are lock-free atomics. Snapshots are
// taken live — concurrent increments may or may not be included, totals
// are exact once the run has quiesced.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// registrySnapshot is the JSON snapshot layout; encoding/json sorts map
// keys, so the output is deterministic for given values.
type registrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// SnapshotJSON returns the full registry state as indented JSON.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := registrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			LE:     histBuckets[:],
			Counts: make([]int64, len(histBuckets)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range histBuckets {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[name] = hs
	}
	return json.MarshalIndent(snap, "", "  ")
}

// WriteSnapshot writes the JSON snapshot to path (the -metrics FILE
// CLI hook).
func (r *Registry) WriteSnapshot(path string) error {
	data, err := r.SnapshotJSON()
	if err != nil {
		return fmt.Errorf("obs: snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: write snapshot: %w", err)
	}
	return nil
}

// promName converts a registry metric name to a Prometheus metric name:
// twopcp_ prefix, dots and dashes to underscores.
func promName(name string) string {
	return "twopcp_" + strings.Map(func(r rune) rune {
		if r == '.' || r == '-' {
			return '_'
		}
		return r
	}, name)
}

// PrometheusText renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters as <name>_total, gauges verbatim,
// histograms with cumulative _bucket{le=...} series plus _sum and
// _count. Metric families are emitted in sorted name order.
func (r *Registry) PrometheusText() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, r.counters[name].Load())
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", pn, pn,
			strconv.FormatFloat(r.gauges[name].Load(), 'g', -1, 64))
	}

	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for i, le := range histBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", pn,
				strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.count.Load())
		fmt.Fprintf(&b, "%s_sum %s\n", pn,
			strconv.FormatFloat(math.Float64frombits(h.sum.Load()), 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.count.Load())
	}
	return []byte(b.String())
}
