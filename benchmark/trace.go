package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id;
// Parent is the id of the span that caused this one (0 for an op's root).
// Bytes is the count taken at the same boundary, where the call moves
// data (a block read, a unit get or put, a checkpoint write).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory; nothing is written until the run ends.
// It is safe for concurrent use: the asynchronous Phase-2 pipeline calls
// the wrapped store from its I/O goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, attaching the bytes the call moved.
func (t *tracer) end(id int, bytes int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span id, the span's duration minus the
// part of its interval that its direct children cover, in nanoseconds.
// Children may overlap each other (asynchronous I/O) or stick out past
// the parent (a write-back still in flight when the parent returns): the
// covered part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// opSpans groups spans by op id and name: per op, the total duration in
// milliseconds, the call count and the bytes of every span name.
type nameTotals struct {
	ms    float64
	calls int
	bytes int64
}

func totalsByOp(spans []span) map[int]map[string]*nameTotals {
	out := map[int]map[string]*nameTotals{}
	for _, s := range spans {
		byName := out[s.Op]
		if byName == nil {
			byName = map[string]*nameTotals{}
			out[s.Op] = byName
		}
		t := byName[s.Name]
		if t == nil {
			t = &nameTotals{}
			byName[s.Name] = t
		}
		t.ms += s.ms()
		t.calls++
		t.bytes += s.Bytes
	}
	return out
}
