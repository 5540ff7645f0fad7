// Package cli holds the process-level plumbing the twopcp front-ends
// (cmd/twopcp, cmd/experiments, cmd/twopcpd) share: the graceful-drain
// signal handler and its exit-code conventions, the telemetry flag wiring
// (trace, metrics registry, pprof/Prometheus endpoint, periodic progress),
// environment-variable flag defaults, and the factor CSV export whose
// byte-exact format the crash-recovery and service smoke tests compare.
// Keeping one copy here is what keeps the three binaries' contracts
// identical: same exit codes, same summary discipline, same CSV bits.
package cli

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"twopcp"
	"twopcp/internal/par"
)

// Exit codes beyond the conventional 1 (failure) / 2 (usage), shared by
// every front-end so scripts can tell resumable outcomes from hard
// failures.
const (
	// ExitDrained: the run stopped gracefully on SIGTERM/SIGINT after
	// writing a checkpoint; restart with -resume to continue bit-exactly.
	ExitDrained = 3
	// ExitQuarantine: Phase-1 blocks exhausted the retry budget on a
	// permanent fault; the rest of the run is checkpointed, so fixing the
	// fault and resuming recomputes only the quarantined blocks.
	ExitQuarantine = 4
)

// InstallDrain installs the shared signal contract: the first
// SIGTERM/SIGINT closes the returned channel (callers pass it as
// Options.Stop so the run finishes its in-flight step, checkpoints, and
// returns ErrInterrupted → ExitDrained); a second signal kills the
// process the usual way because the handler resets itself. name prefixes
// the stderr notice.
func InstallDrain(name string) <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "%s: received %v, draining (finishing in-flight step, writing checkpoint)\n", name, s)
		signal.Stop(sigc)
		close(stop)
	}()
	return stop
}

// ExitCode maps a run error to the front-ends' shared exit-code
// convention: ExitDrained for a graceful drain (twopcp.ErrInterrupted),
// ExitQuarantine for quarantined Phase-1 blocks, 1 for everything else,
// 0 for nil.
func ExitCode(err error) int {
	var qe *twopcp.QuarantineError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, twopcp.ErrInterrupted):
		return ExitDrained
	case errors.As(err, &qe):
		return ExitQuarantine
	}
	return 1
}

// EnvFloat reads a float64 flag default from the environment (0 when
// unset or unparseable — the flag's own validation is the error path).
func EnvFloat(name string) float64 {
	v, _ := strconv.ParseFloat(os.Getenv(name), 64)
	return v
}

// EnvInt reads an int64 flag default from the environment.
func EnvInt(name string) int64 {
	v, _ := strconv.ParseInt(os.Getenv(name), 10, 64)
	return v
}

// Telemetry wires the shared observability flags (-trace, -metrics,
// -pprof, -progress) into one twopcp.Observer. Fill the fields from the
// parsed flags and call Start; any subset may be set, and when all are
// empty Start returns a nil observer so the run pays essentially
// nothing.
type Telemetry struct {
	// TracePath appends the structured JSONL event trace to this file.
	TracePath string
	// MetricsPath writes a JSON metrics-registry snapshot here after the
	// run (on Close).
	MetricsPath string
	// PprofAddr serves net/http/pprof plus a Prometheus /metrics endpoint
	// on this address while the run executes.
	PprofAddr string
	// Progress prints a periodic progress line to stderr at this interval.
	Progress time.Duration
}

// Handle is the live telemetry state Start returns: the observer to pass
// as Options.Observer (nil when no telemetry flag was set) and the
// registry behind it (nil without metrics). Close stops the progress
// reporter, flushes and closes the trace, and writes the metrics
// snapshot; it returns the first error.
type Handle struct {
	// Observer is the configured telemetry sink for Options.Observer.
	Observer *twopcp.Observer
	// Registry is the metrics registry behind Observer, when metrics are
	// on — front-ends read live counters (progress, /metrics) off it.
	Registry *twopcp.Registry

	metricsPath  string
	rec          *twopcp.Recorder
	stopProgress func()
	undispatch   bool
}

// enabled reports whether any telemetry flag was set.
func (t Telemetry) enabled() bool {
	return t.TracePath != "" || t.MetricsPath != "" || t.PprofAddr != "" || t.Progress > 0
}

// Start opens the configured sinks: the trace recorder (append mode, so
// a resumed run extends the pre-crash stream), the metrics registry
// (bound to the par dispatch counter), the pprof+/metrics server, and
// the progress reporter. The returned Handle must be Closed after the
// run; Close is safe on every path Start returns successfully.
func (t Telemetry) Start() (*Handle, error) {
	h := &Handle{metricsPath: t.MetricsPath, stopProgress: func() {}}
	if !t.enabled() {
		return h, nil
	}
	ob := &twopcp.Observer{}
	if t.TracePath != "" {
		rec, err := twopcp.OpenTrace(t.TracePath)
		if err != nil {
			return nil, err
		}
		h.rec = rec
		ob.Trace = rec
	}
	if t.MetricsPath != "" || t.PprofAddr != "" || t.Progress > 0 {
		h.Registry = twopcp.NewRegistry()
		ob.Metrics = h.Registry
		par.SetDispatchCounter(h.Registry.Counter("par.dispatches"))
		h.undispatch = true
	}
	h.Observer = ob
	if t.PprofAddr != "" {
		Serve(t.PprofAddr, h.Registry)
	}
	if t.Progress > 0 {
		h.stopProgress = startProgress(h.Registry, t.Progress)
	}
	return h, nil
}

// Close tears the telemetry down in the right order: final progress
// line, trace flush+close, metrics snapshot, dispatch-counter unbind.
func (h *Handle) Close() error {
	h.stopProgress()
	var first error
	if h.rec != nil {
		if err := h.rec.Close(); err != nil {
			first = err
		}
		h.rec = nil
	}
	if h.metricsPath != "" && h.Registry != nil {
		if err := h.Registry.WriteSnapshot(h.metricsPath); first == nil && err != nil {
			first = err
		}
		h.metricsPath = ""
	}
	if h.undispatch {
		par.SetDispatchCounter(nil)
		h.undispatch = false
	}
	return first
}

// Serve starts the admin HTTP listener on addr in the background:
// net/http/pprof plus the registry's Prometheus exposition at /metrics
// (when reg is non-nil). Each call builds its own mux, so Serve is
// idempotent — a second call (daemon restart in tests, CLI and daemon in
// one process) starts another listener instead of panicking on a
// duplicate http.DefaultServeMux registration. Listen errors are logged,
// not fatal — a colliding admin port must not kill a long decomposition.
func Serve(addr string, reg *twopcp.Registry) {
	mux := adminMux(reg)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("admin server: %v", err)
		}
	}()
}

// adminMux builds the admin endpoint set on a fresh mux: the pprof
// handlers registered explicitly (never via http.DefaultServeMux) and
// /metrics when reg is non-nil, the registry followed by heapGauges.
func adminMux(reg *twopcp.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(reg.PrometheusText())
			w.Write(heapGauges())
		})
	}
	return mux
}

// heapGauges renders the Go heap in use and the heap goal, read from
// runtime/metrics at scrape time, as Prometheus gauges: resident memory
// tracks the goal, so an operator sees what bounds it without pprof.
func heapGauges() []byte {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/goal:bytes"},
	}
	metrics.Read(s)
	var b []byte
	for i, name := range []string{"twopcp_heap_inuse_bytes", "twopcp_heap_goal_bytes"} {
		b = fmt.Appendf(b, "# TYPE %s gauge\n%s %d\n", name, name, s[i].Value.Uint64())
	}
	return b
}

// startProgress launches the periodic progress reporter: one stderr line
// per tick with the run's live position (Phase-1 blocks and sweeps, then
// Phase-2 fit and iterations) and I/O counters. Returns its stop func,
// which prints one final line so even runs shorter than the tick leave a
// progress record.
func startProgress(reg *twopcp.Registry, every time.Duration) func() {
	const mb = 1.0 / (1 << 20)
	blocks := reg.Counter("phase1.blocks_done")
	sweeps := reg.Counter("phase1.sweeps")
	iters := reg.Gauge("phase2.virtual_iters")
	fit := reg.Gauge("phase2.fit")
	fetches := reg.Counter("buffer.fetches")
	hits := reg.Counter("buffer.hits")
	bytesRead := reg.Counter("blockstore.bytes_read")
	bytesWritten := reg.Counter("blockstore.bytes_written")
	start := time.Now()
	report := func() {
		hitRate := 0.0
		if tot := hits.Load() + fetches.Load(); tot > 0 {
			hitRate = float64(hits.Load()) / float64(tot)
		}
		fmt.Fprintf(os.Stderr,
			"progress %8s  blocks=%d sweeps=%d  iters=%g fit=%.6f  read=%.1fMB written=%.1fMB hit=%.1f%%\n",
			time.Since(start).Round(time.Second),
			blocks.Load(), sweeps.Load(), iters.Load(), fit.Load(),
			float64(bytesRead.Load())*mb, float64(bytesWritten.Load())*mb,
			100*hitRate)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				report()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		report()
	}
}

// WriteFactorCSV exports one factor matrix as CSV, one row per line,
// values formatted with %g. Every front-end exports through this one
// function: the crash-recovery and daemon integration tests compare the
// files byte-for-byte, so the format is part of the bit-exactness story.
func WriteFactorCSV(path string, m *twopcp.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeFactorRows(w, m); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFactorRows emits the CSV body: one row per line, %g values,
// comma-separated, "\n" line ends.
func writeFactorRows(w *bufio.Writer, m *twopcp.Matrix) error {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := w.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%g", v); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}
