package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventJSON pins the wire encoding: field order follows construction
// order, floats round-trip bit-exactly, dur is omitted for point events.
func TestEventJSON(t *testing.T) {
	e := Event{
		Name: "buffer.fetch",
		TS:   1700000000123456789,
		Fields: []Field{
			Int("mode", 1), Int("part", 0), I64("bytes", 4096),
		},
	}
	want := `{"ev":"buffer.fetch","ts":1700000000123456789,"mode":1,"part":0,"bytes":4096}`
	if got := e.JSON(); got != want {
		t.Errorf("JSON:\ngot  %s\nwant %s", got, want)
	}
	if got, want := e.Canon(), `{"ev":"buffer.fetch","mode":1,"part":0,"bytes":4096}`; got != want {
		t.Errorf("Canon:\ngot  %s\nwant %s", got, want)
	}

	span := Event{Name: "phase2.iter", TS: 10, Dur: 250, Fields: []Field{Int("iter", 3), F64("fit", 0.5)}}
	if got, want := span.JSON(), `{"ev":"phase2.iter","ts":10,"dur":250,"iter":3,"fit":0.5}`; got != want {
		t.Errorf("span JSON:\ngot  %s\nwant %s", got, want)
	}
	if got := span.Canon(); strings.Contains(got, "dur") || strings.Contains(got, "ts") {
		t.Errorf("Canon leaked clock fields: %s", got)
	}
}

// TestFieldEncodings checks every field constructor through a JSON decode:
// what goes in must come back out with the same value and JSON type, and
// floats must round-trip to the exact same bits.
func TestFieldEncodings(t *testing.T) {
	ugly := math.Nextafter(1.0/3.0, 1) // not exactly representable in short decimal
	e := Event{Name: "x", TS: 1, Fields: []Field{
		Int("i", -7),
		I64("i64", 1<<40),
		F64("f", ugly),
		Str("s", `quote " backslash \ unicode ✓`),
		Bool("yes", true),
		Bool("no", false),
	}}
	var m map[string]any
	dec := json.NewDecoder(strings.NewReader(e.JSON()))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("encoder produced invalid JSON: %v\n%s", err, e.JSON())
	}
	if v, _ := m["i"].(json.Number).Int64(); v != -7 {
		t.Errorf("i = %v", m["i"])
	}
	if v, _ := m["i64"].(json.Number).Int64(); v != 1<<40 {
		t.Errorf("i64 = %v", m["i64"])
	}
	f, _ := m["f"].(json.Number).Float64()
	if math.Float64bits(f) != math.Float64bits(ugly) {
		t.Errorf("float did not round-trip: got %x want %x", math.Float64bits(f), math.Float64bits(ugly))
	}
	if m["s"] != `quote " backslash \ unicode ✓` {
		t.Errorf("s = %q", m["s"])
	}
	if m["yes"] != true || m["no"] != false {
		t.Errorf("bools = %v, %v", m["yes"], m["no"])
	}
}

// TestNilObserver exercises every method on a nil observer — the disabled
// state must be safe and report not-tracing.
func TestNilObserver(t *testing.T) {
	var o *Observer
	if o.Tracing() {
		t.Error("nil observer reports Tracing() = true")
	}
	o.Emit("run.start", Str("kind", "dense")) // must not panic
	o.EmitSpan("phase2.iter", time.Now())
	if o.Counter("x") != nil || o.Gauge("x") != nil || o.Histogram("x") != nil {
		t.Error("nil observer returned non-nil metric handles")
	}
	// The nil handles it hands out are disabled, not dangerous: callers
	// write to them unguarded.
	o.Counter("x").Inc()
	o.Counter("x").Add(3)
	o.Gauge("x").Set(1.5)
	o.Histogram("x").Observe(2)

	// Zero-value observer: same deal, plus metric lookups with no registry.
	z := &Observer{}
	if z.Tracing() {
		t.Error("zero observer reports Tracing() = true")
	}
	z.Emit("run.start")
	if z.Counter("x") != nil {
		t.Error("registry-less observer returned a counter")
	}
}

// TestObserverOnEvent checks the callback sink sees every event with its
// fields intact, and that Tracing() turns on for callback-only observers.
func TestObserverOnEvent(t *testing.T) {
	var got []Event
	o := &Observer{OnEvent: func(e Event) { got = append(got, e) }}
	if !o.Tracing() {
		t.Fatal("OnEvent-only observer reports Tracing() = false")
	}
	o.Emit("phase1.block", Int("block", 2), F64("fit", 0.25), Int("sweeps", 6), Bool("cached", false))
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1", len(got))
	}
	if got[0].TS == 0 {
		t.Error("Emit left TS zero")
	}
	want := `{"ev":"phase1.block","block":2,"fit":0.25,"sweeps":6,"cached":false}`
	if got[0].Canon() != want {
		t.Errorf("Canon:\ngot  %s\nwant %s", got[0].Canon(), want)
	}
}

// TestRecorderWritesValidLines runs a few events through the recorder and
// validates each resulting line against the schema.
func TestRecorderWritesValidLines(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	o := &Observer{Trace: rec}
	o.Emit("run.start", Str("kind", "tiled"), Str("dims", "12x10x8"), Int("rank", 3), Bool("resumed", false))
	o.Emit("buffer.fetch", Int("mode", 0), Int("part", 1), I64("bytes", 640))
	o.Emit("run.done", F64("fit", 0.875), Int("virtual_iters", 6), Bool("converged", true))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		if err := ValidateLine(line); err != nil {
			t.Errorf("line %d: %v\n%s", i+1, err, line)
		}
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestRecorderStickyError checks the first write error is kept, later
// records are dropped without panicking, and Close surfaces it.
func TestRecorderStickyError(t *testing.T) {
	rec := NewRecorder(&errWriter{n: 0})
	for i := 0; i < 100; i++ {
		rec.Record(Event{Name: "phase2.step", TS: int64(i)})
	}
	// Force the buffered writer to hit the sink.
	if err := rec.Flush(); err == nil {
		t.Fatal("Flush returned nil after sink failure")
	}
	rec.Record(Event{Name: "phase2.step", TS: 1}) // must be a no-op
	if err := rec.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want disk full", err)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines (run
// under -race in CI) and checks no line is torn or interleaved: every line
// must parse, validate, and the per-writer event counts must add up.
func TestRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	o := &Observer{Trace: rec}
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				o.Emit("phase2.step", Int("step", i), Int("mode", w), Int("part", 0))
			}
		}(w)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	counts := make([]int, writers)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		n++
		if err := ValidateLine(sc.Bytes()); err != nil {
			t.Fatalf("line %d torn or invalid: %v\n%s", n, err, sc.Text())
		}
		var m struct {
			Mode int `json:"mode"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		counts[m.Mode]++
	}
	if n != writers*perWriter {
		t.Fatalf("got %d lines, want %d", n, writers*perWriter)
	}
	for w, c := range counts {
		if c != perWriter {
			t.Errorf("writer %d: %d lines, want %d", w, c, perWriter)
		}
	}
}

// TestValidateLine covers the schema checker's accept and reject paths.
func TestValidateLine(t *testing.T) {
	good := []string{
		`{"ev":"run.start","ts":1,"kind":"dense","dims":"4x4x4","rank":2,"resumed":false}`,
		`{"ev":"checkpoint.resume","ts":5,"stage":"phase2"}`,
		`{"ev":"phase0.sketch","ts":2,"accelerator":"tucker","active":true,"core_dims":"5x5x5","core_fit":0.9,"core_iters":4}`,
		`{"ev":"phase0.sketch","ts":2,"accelerator":"tucker","active":false,"reason":"core too large"}`,
		`{"ev":"phase2.iter","ts":3,"dur":99,"iter":1,"fit":0.5}`,
	}
	for _, line := range good {
		if err := ValidateLine([]byte(line)); err != nil {
			t.Errorf("rejected valid line: %v\n%s", err, line)
		}
	}
	bad := []struct{ line, why string }{
		{`not json`, "not JSON"},
		{`{"ts":1}`, "missing ev"},
		{`{"ev":"made.up","ts":1}`, "unknown event"},
		{`{"ev":"run.done","fit":0.5,"virtual_iters":1,"converged":true}`, "missing ts"},
		{`{"ev":"run.done","ts":"now","fit":0.5,"virtual_iters":1,"converged":true}`, "non-numeric ts"},
		{`{"ev":"phase2.iter","ts":1,"dur":"long","iter":1,"fit":0.5}`, "non-numeric dur"},
		{`{"ev":"run.done","ts":1,"fit":0.5,"converged":true}`, "missing required field"},
		{`{"ev":"run.done","ts":1,"fit":"high","virtual_iters":1,"converged":true}`, "wrong field type"},
		{`{"ev":"run.done","ts":1,"fit":0.5,"virtual_iters":1,"converged":true,"extra":1}`, "undeclared field"},
	}
	for _, tc := range bad {
		if err := ValidateLine([]byte(tc.line)); err == nil {
			t.Errorf("accepted invalid line (%s):\n%s", tc.why, tc.line)
		}
	}
}

// TestSchemaMatchesEmitHelpers validates that a representative event of
// every schema entry can actually be constructed and validated — guards
// against the catalog drifting from the encoder.
func TestSchemaCoverage(t *testing.T) {
	for name, specs := range Schema {
		fields := make([]Field, 0, len(specs))
		for _, s := range specs {
			switch s.Type {
			case TypeNum:
				fields = append(fields, Int(s.Name, 1))
			case TypeStr:
				fields = append(fields, Str(s.Name, "x"))
			case TypeBool:
				fields = append(fields, Bool(s.Name, true))
			}
		}
		e := Event{Name: name, TS: 1, Fields: fields}
		if err := ValidateLine([]byte(e.JSON())); err != nil {
			t.Errorf("%s: self-constructed event rejected: %v", name, err)
		}
	}
}

// TestCounterGauge covers the basic metric types and get-or-create
// identity: the same name must return the same handle.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("a.b") != c {
		t.Error("Counter returned a different handle for the same name")
	}

	g := r.Gauge("fit")
	g.Set(0.75)
	if got := g.Load(); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
	if r.Gauge("fit") != g {
		t.Error("Gauge returned a different handle for the same name")
	}
}

// TestHistogram checks bucket assignment at and around the powers-of-4
// boundaries, the +Inf overflow path, and the exact sum.
func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bytes")
	vals := []float64{1, 2, 4, 5, 1 << 30, 1e12} // 1e12 overflows the last bucket
	for _, v := range vals {
		h.Observe(v)
	}
	var snap registrySnapshot
	data, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	hs := snap.Histograms["bytes"]
	if hs.Count != int64(len(vals)) {
		t.Errorf("count = %d, want %d", hs.Count, len(vals))
	}
	wantSum := 0.0
	for _, v := range vals {
		wantSum += v
	}
	if hs.Sum != wantSum {
		t.Errorf("sum = %v, want %v", hs.Sum, wantSum)
	}
	// le=1 gets {1}; le=4 gets {2,4}; le=16 gets {5}; 2^30 = 4^15 is the
	// last bucket; 1e12 lands only in the implicit +Inf (count).
	wantCounts := map[float64]int64{1: 1, 4: 2, 16: 1, math.Pow(4, 15): 1}
	var inBuckets int64
	for i, le := range hs.LE {
		if want := wantCounts[le]; hs.Counts[i] != want {
			t.Errorf("bucket le=%g: count %d, want %d", le, hs.Counts[i], want)
		}
		inBuckets += hs.Counts[i]
	}
	if inBuckets != hs.Count-1 {
		t.Errorf("bucketed %d of %d observations, want exactly one overflow", inBuckets, hs.Count)
	}
}

// TestHistogramConcurrent checks the CAS sum accumulation under
// contention (exact because every observation is 1.0).
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	if got := math.Float64frombits(h.sum.Load()); got != workers*per {
		t.Errorf("sum = %v, want %v", got, workers*per)
	}
}

// TestSnapshotJSONDeterministic: two snapshots of the same state must be
// byte-identical (map keys are sorted by encoding/json).
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(n).Inc()
		r.Gauge("g." + n).Set(1)
	}
	a, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("snapshots of identical state differ")
	}
}

// TestPrometheusText pins the exposition format: type lines, _total
// suffix on counters, cumulative buckets, sorted family order.
func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("buffer.fetches").Add(3)
	r.Counter("a.first").Inc()
	r.Gauge("run.buffer_hit_rate").Set(0.5)
	h := r.Histogram("blockstore.get_bytes")
	h.Observe(2)
	h.Observe(100)

	text := string(r.PrometheusText())
	wantLines := []string{
		"# TYPE twopcp_a_first_total counter",
		"twopcp_a_first_total 1",
		"# TYPE twopcp_buffer_fetches_total counter",
		"twopcp_buffer_fetches_total 3",
		"# TYPE twopcp_run_buffer_hit_rate gauge",
		"twopcp_run_buffer_hit_rate 0.5",
		"# TYPE twopcp_blockstore_get_bytes histogram",
		`twopcp_blockstore_get_bytes_bucket{le="4"} 1`,
		`twopcp_blockstore_get_bytes_bucket{le="256"} 2`,
		`twopcp_blockstore_get_bytes_bucket{le="+Inf"} 2`,
		"twopcp_blockstore_get_bytes_sum 102",
		"twopcp_blockstore_get_bytes_count 2",
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing line %q in exposition:\n%s", want, text)
		}
	}
	// Counters come out in sorted order.
	if ai, bi := strings.Index(text, "twopcp_a_first_total"), strings.Index(text, "twopcp_buffer_fetches_total"); ai > bi {
		t.Error("counter families not sorted")
	}
	// Bucket counts must be cumulative: each le line >= the previous.
	prev := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "twopcp_blockstore_get_bytes_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
}
