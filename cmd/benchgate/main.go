// Command benchgate is the CI perf-regression gate: it parses `go test
// -bench` output, compares it against the committed BENCH_*.json baselines
// and fails (exit 1) when a gated metric regresses beyond the tolerance.
//
// Usage:
//
//	benchgate [-baseline-dir .] [-tolerance 0.25] \
//	          [-out bench_results.json] bench-log [bench-log...]
//
// -tolerance is only the default: a baseline file may pin a different
// tolerance for any gate it backs via a top-level
//
//	"gate_tolerances": { "<gate-name>": 0.10, ... }
//
// object, so noisy ratios can run looser and tight invariants tighter
// without widening every other gate on the runner. The effective
// tolerance of each gate is recorded in the -out report.
//
// Every gate is a machine-independent quantity that no end-to-end
// workload (BENCHMARK.json) and no test answers: the prefetch pipeline's
// speedup over the synchronous engine, the ALS workspace's allocation
// count and its speed relative to the fresh path and to one standalone
// MTTKRP per mode, the nonnegative sweep's cost, what live telemetry,
// event tracing and the idle retry layer cost, the Phase-0 warm start's
// speedup and fit parity, and the serving paths' allocation counts.
// These hold on any hardware, so CI runners can enforce them even though
// the committed ns/op numbers were recorded elsewhere.
//
// The evaluation (every gate, measured vs limit, pass/fail) is written to
// -out as JSON for CI artifact upload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// measurement is one parsed benchmark result line.
type measurement struct {
	NsPerOp     float64
	AllocsPerOp float64
	hasAllocs   bool
	// Metrics holds custom b.ReportMetric units (swaps, MB/s, ...).
	Metrics map[string]float64
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// parseBenchOutput collects benchmark lines from r's content, keyed by
// benchmark name (the trailing -GOMAXPROCS is stripped). Repeated runs of
// the same benchmark (from -count > 1) keep the minimum ns/op — the
// conventional "best of" that filters scheduling noise — and the maximum
// allocs/op (pessimistic for a regression gate).
func parseBenchOutput(content string) map[string]*measurement {
	out := make(map[string]*measurement)
	sc := bufio.NewScanner(strings.NewReader(content))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[3])
		cur := out[name]
		if cur == nil {
			cur = &measurement{NsPerOp: math.Inf(1), Metrics: map[string]float64{}}
			out[name] = cur
		}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if v < cur.NsPerOp {
					cur.NsPerOp = v
				}
			case "allocs/op":
				if !cur.hasAllocs || v > cur.AllocsPerOp {
					cur.AllocsPerOp = v
					cur.hasAllocs = true
				}
			case "B/op":
				// not gated
			default:
				cur.Metrics[unit] = v
			}
		}
	}
	// Drop degenerate entries (a line without ns/op would poison ratios
	// and cannot be marshaled).
	for name, m := range out {
		if math.IsInf(m.NsPerOp, 0) {
			delete(out, name)
		}
	}
	return out
}

// gate is one evaluated check.
type gate struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	Limit    float64 `json:"limit"`
	Baseline float64 `json:"baseline"`
	// Tolerance is the relative slack this gate ran with: the baseline
	// file's gate_tolerances override when present, else the -tolerance
	// flag. Zero for gates whose limit is a fixed acceptance bound.
	Tolerance float64 `json:"tolerance,omitempty"`
	Pass      bool    `json:"pass"`
	Detail    string  `json:"detail,omitempty"`
	Skipped   bool    `json:"skipped,omitempty"`
}

type report struct {
	Tolerance float64                 `json:"tolerance"`
	Gates     []gate                  `json:"gates"`
	Raw       map[string]*measurement `json:"raw"`
	Pass      bool                    `json:"pass"`
}

// digFloat walks a decoded JSON tree by key path; the final element may be
// a number or an array of numbers (reduced to the median).
func digFloat(root any, path ...string) (float64, bool) {
	cur := root
	for _, key := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur, ok = m[key]
		if !ok {
			return 0, false
		}
	}
	switch v := cur.(type) {
	case float64:
		return v, true
	case []any:
		vals := make([]float64, 0, len(v))
		for _, e := range v {
			f, ok := e.(float64)
			if !ok {
				return 0, false
			}
			vals = append(vals, f)
		}
		if len(vals) == 0 {
			return 0, false
		}
		sort.Float64s(vals)
		return vals[len(vals)/2], true
	}
	return 0, false
}

// gateTol resolves the tolerance for one gate: the baseline file's
// "gate_tolerances" override when present, the command-line default
// otherwise.
func gateTol(root any, name string, def float64) float64 {
	if v, ok := digFloat(root, "gate_tolerances", name); ok {
		return v
	}
	return def
}

func loadJSON(dir, name string) (any, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	var root any
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return root, nil
}

// reading picks one number off a parsed benchmark line; ok is false when
// the line does not carry it.
type reading func(*measurement) (float64, bool)

func nsPerOp(m *measurement) (float64, bool)     { return m.NsPerOp, true }
func allocsPerOp(m *measurement) (float64, bool) { return m.AllocsPerOp, m.hasAllocs }
func metric(unit string) reading {
	return func(m *measurement) (float64, bool) { v, ok := m.Metrics[unit]; return v, ok }
}

// form says how a gate's two readings become its measured value.
type form int

const (
	single   form = iota // read(a)
	ratio                // read(a) / read(b)
	overhead             // read(a)/read(b) − 1
	versus               // read(a), held against read(b) as the baseline
)

// limitRule computes a gate's limit from its baseline and tolerance.
type limitRule func(base, tol float64) float64

func relUp(base, tol float64) float64   { return base * (1 + tol) }
func relDown(base, tol float64) float64 { return base * (1 - tol) }
func plusTol(base, tol float64) float64 { return base + tol }
func ceilUp(base, tol float64) float64  { return math.Ceil(base * (1 + tol)) }
func fixed(bound float64) limitRule     { return func(_, _ float64) float64 { return bound } }

// accept is a fixed acceptance criterion plus a measurement margin (the
// gate's tolerance).
func accept(bound float64) limitRule { return func(_, tol float64) float64 { return bound + tol } }

// spec is one row of the gate table.
type spec struct {
	name string
	// a and b name the benchmarks read, less the section's prefix (b is
	// empty for single readings); read picks the number off each (nil:
	// ns/op) and form combines them.
	a, b string
	read reading
	form form
	// base is the key path of the recorded baseline in the section's file.
	// It is informational unless needBase, which omits the gate without it.
	base     []string
	needBase bool
	limit    limitRule
	// margin is the gate's own default tolerance (0: the -tolerance flag);
	// either way the baseline file's gate_tolerances entry overrides it.
	// noTol marks a fixed bound, which takes and records no tolerance.
	margin float64
	noTol  bool
	// atLeast passes measured >= limit; otherwise a gate passes
	// measured <= limit.
	atLeast bool
	// detail is the report text: a fmt format over the fixed arguments
	// 1: a's ns/op, 2: b's ns/op, 3: the limit, 4: the tolerance in
	// percent.
	detail string
	// skip, when set, is reported as a SKIP if the gate's inputs are
	// missing; otherwise such a gate is silently left out.
	skip string
}

// section is the gates sharing one baseline file and one set of required
// inputs. Without the file, the file's first section reports one SKIP under
// its skip name; without the needed benchmarks (or baseline key), the
// section reports one SKIP naming what.
type section struct {
	file     string
	bench    string   // prefix of every benchmark name in the section
	needs    []string // benchmarks every gate of the section reads
	needBase []string
	skip     string
	what     string
	gates    []spec
}

// alsKey is the ALS sweep's entry in BENCH_kernels.json.
const alsKey = "ALSSweep_dense_64x64x64_rank16_2sweeps"

// sections is the gate table, in report order.
var sections = []section{
	{
		file: "BENCH_phase2_prefetch.json", bench: "BenchmarkPhase2Prefetch/", needs: []string{"sync", "prefetch"}, needBase: []string{"speedup"},
		skip: "phase2-prefetch-speedup", what: "BenchmarkPhase2Prefetch sync/prefetch measurements",
		gates: []spec{
			{name: "phase2-prefetch-speedup", a: "sync", b: "prefetch", form: ratio, base: []string{"speedup"}, limit: relDown, atLeast: true,
				detail: "sync %.0[1]f ns/op vs prefetch %.0[2]f ns/op; must stay >= %.2[3]fx"},
		},
	},
	{
		file: "BENCH_kernels.json", bench: "BenchmarkALSSweep/", needs: []string{"fresh", "workspace"},
		skip: "als-workspace", what: "BenchmarkALSSweep measurements",
		gates: []spec{
			{name: "als-workspace-allocs", a: "workspace", read: allocsPerOp, base: []string{"benchmarks", alsKey, "new_workspace", "allocs_per_op"}, needBase: true, limit: ceilUp,
				detail: "allocation count is hardware-independent; a rise means per-sweep scratch regressed"},
			{name: "als-workspace-vs-fresh", a: "workspace", b: "fresh", form: versus, limit: relUp,
				detail: "the reusable workspace must never be slower than fresh allocation"},
			// The constrained-solver acceptance bound: a nonnegative (HALS)
			// ALS sweep must cost at most 2× the unconstrained workspace
			// sweep. The ratio is machine-independent (both sides run the
			// same MTTKRP/Gram kernels; only the row solve differs), so it
			// is gated on every runner. The recorded baseline is
			// informational.
			{name: "als-nonneg-overhead", a: "nonneg", b: "workspace", form: ratio, base: []string{"benchmarks", alsKey, "nonneg", "overhead_vs_workspace"}, limit: fixed(2.0), noTol: true,
				detail: "nonneg %.0[1]f ns/op vs workspace %.0[2]f ns/op; constrained sweeps must cost <= 2x unconstrained"},
			// A sweep shares the mode-0 fiber products between modes 1..N-1,
			// so the whole sweep — MTTKRPs, Grams, solves — must cost less
			// than its MTTKRPs alone would at one tensor pass per mode. Both
			// sides stream the same block on the same machine, so the ratio
			// is gated everywhere: at the recorded value plus tolerance, and
			// never above 1.
			{name: "als-sweep-vs-mttkrp-per-mode", a: "workspace", b: "mttkrp-per-mode", form: ratio, base: []string{"benchmarks", alsKey, "sweep_vs_mttkrp_per_mode"}, needBase: true,
				limit:  func(base, tol float64) float64 { return math.Min(1, relUp(base, tol)) },
				detail: "workspace sweep %.0[1]f ns/op vs per-mode MTTKRPs %.0[2]f ns/op; a rise toward 1 means the modes stopped sharing fiber products"},
		},
	},
	{
		file: "BENCH_obs.json", bench: "BenchmarkObsOverhead/", needs: []string{"off", "counters"},
		skip: "obs-counters-overhead", what: "BenchmarkObsOverhead off/counters measurements",
		gates: []spec{
			// 2% is the acceptance criterion for a live metrics registry on
			// the in-memory engine; the margin (default 10%, overridable via
			// gate_tolerances) absorbs shared-runner jitter on a ratio of two
			// ~2 ms wall-clock timings (run with -count >= 3 — the parser
			// keeps the min of each side).
			{name: "obs-counters-overhead", a: "counters", b: "off", form: overhead, base: []string{"counters_overhead"}, limit: accept(0.02), margin: 0.10,
				detail: "off %.0[2]f ns/op vs counters %.0[1]f ns/op; live metrics must cost <= 2%% (+%.0[4]f%% measurement margin)"},
			// Allocation counts are deterministic, so the disabled observer's
			// allocs/op gate runs tight: any allocation added to the
			// nil-observer path shows up here exactly.
			{name: "obs-off-allocs", a: "off", read: allocsPerOp, base: []string{"results", "off", "allocs_per_op"}, needBase: true, limit: ceilUp,
				detail: "a nil observer must not allocate; a rise means telemetry leaked into the disabled path"},
			// Tracing is opt-in, so its bound is the recorded baseline plus
			// tolerance rather than a fixed acceptance — the gate catches an
			// encoder regression, not a policy limit.
			{name: "obs-trace-overhead", a: "trace", b: "off", form: overhead, base: []string{"trace_overhead"}, limit: plusTol,
				detail: "off %.0[2]f ns/op vs trace %.0[1]f ns/op; full event tracing must stay within %.0[4]f%% of the recorded overhead"},
		},
	},
	{
		file: "BENCH_resilience.json", bench: "BenchmarkResilienceOverhead/", needs: []string{"off", "retry"},
		skip: "resilience-overhead", what: "BenchmarkResilienceOverhead off/retry measurements",
		gates: []spec{
			// 2% is the acceptance criterion for the armed-but-idle retry
			// layer (wrapper fast path, zero faults) on the in-memory engine;
			// the margin absorbs shared-runner jitter on a ratio of two
			// wall-clock timings, exactly like obs-counters-overhead.
			{name: "resilience-overhead", a: "retry", b: "off", form: overhead, base: []string{"retry_overhead"}, limit: accept(0.02), margin: 0.10,
				detail: "off %.0[2]f ns/op vs retry %.0[1]f ns/op; the idle retry layer must cost <= 2%% (+%.0[4]f%% measurement margin)"},
		},
	},
	{
		file: "BENCH_phase0_sketch.json", bench: "BenchmarkPhase0Sketch/", needs: []string{"lowmlrank"},
		skip: "phase0-sketch-speedup", what: "BenchmarkPhase0Sketch/lowmlrank measurement",
		gates: []spec{
			// The acceptance criterion is the 3x floor; the baseline bound on
			// top catches a regression from the recorded speedup long before
			// it erodes down to the floor. The speedup of a warm start over
			// cold ALS swings more between runs than a pure kernel ratio
			// (iteration counts quantize), so this gate's tolerance lives in
			// the baseline file rather than inheriting the CLI default.
			{name: "phase0-sketch-speedup", a: "lowmlrank", read: metric("speedup-x"), base: []string{"speedup"}, needBase: true, atLeast: true,
				limit:  func(base, tol float64) float64 { return math.Max(3.0, relDown(base, tol)) },
				detail: "phase0+phase1 vs brute phase1; must stay >= max(3x acceptance floor, %.1[3]fx)",
				skip:   "speedup-x metric or baseline speedup"},
			// 1e-3 is the acceptance criterion: |fit_accel - fit_brute|.
			{name: "phase0-sketch-fit-delta", a: "lowmlrank", read: metric("fit-delta"), base: []string{"fit_delta"}, limit: fixed(1e-3), noTol: true,
				detail: "the warm start must not change the converged fit beyond 1e-3"},
		},
	},
	{
		file: "BENCH_serve.json", bench: "Benchmark", needs: []string{"PointRead"},
		skip: "serve-point-read-allocs", what: "BenchmarkPointRead measurement",
		gates: []spec{
			// The baseline records 0, so the ceil'd limit stays 0 for any
			// tolerance: one allocation on the steady-state read path fails
			// the gate exactly.
			{name: "serve-point-read-allocs", a: "PointRead", read: allocsPerOp, base: []string{"results", "point_read", "allocs_per_op"}, needBase: true, limit: ceilUp,
				detail: "steady-state point reads must not allocate; a rise means the workspace pool leaked"},
		},
	},
	{
		file: "BENCH_serve.json", bench: "Benchmark", needs: []string{"TopK"},
		skip: "serve-topk-allocs", what: "BenchmarkTopK measurement",
		gates: []spec{
			{name: "serve-topk-allocs", a: "TopK", read: allocsPerOp, base: []string{"results", "topk", "allocs_per_op"}, needBase: true, limit: ceilUp,
				detail: "top-k sweeps reuse the caller's result slice and the pooled heap; a rise means the partial sort regressed"},
		},
	},
}

// ready reports whether the section's shared inputs are all present.
func (s section) ready(meas map[string]*measurement, root any) bool {
	for _, name := range s.needs {
		if meas[s.bench+name] == nil {
			return false
		}
	}
	if s.needBase != nil {
		_, ok := digFloat(root, s.needBase...)
		return ok
	}
	return true
}

// eval evaluates one gate of section s; ok is false when an input it needs
// is missing.
func (sp spec) eval(s section, meas map[string]*measurement, root any, cliTol float64) (g gate, ok bool) {
	a, b := meas[s.bench+sp.a], meas[s.bench+sp.b]
	if a == nil || sp.b != "" && b == nil {
		return g, false
	}
	read := sp.read
	if read == nil {
		read = nsPerOp
	}
	measured, okA := read(a)
	base, okBase := digFloat(root, sp.base...)
	var nsB float64
	if b != nil {
		other, okB := read(b)
		okA, nsB = okA && okB, b.NsPerOp
		switch sp.form {
		case ratio:
			measured /= other
		case overhead:
			measured = measured/other - 1
		case versus:
			base, okBase = other, true
		}
	}
	if !okA || sp.needBase && !okBase {
		return g, false
	}
	var tol float64
	if !sp.noTol {
		tol = cliTol
		if sp.margin > 0 {
			tol = sp.margin
		}
		tol = gateTol(root, sp.name, tol)
	}
	limit := sp.limit(base, tol)
	pass := measured <= limit
	if sp.atLeast {
		pass = measured >= limit
	}
	g = gate{Name: sp.name, Measured: measured, Limit: limit, Baseline: base, Tolerance: tol, Pass: pass, Detail: sp.detail}
	if strings.Contains(sp.detail, "%") {
		g.Detail = fmt.Sprintf(sp.detail, a.NsPerOp, nsB, limit, tol*100)
	}
	return g, true
}

// evaluate walks the gate table: every gate the measurements and baselines
// support is evaluated, and a section whose inputs are missing is reported
// as one SKIP rather than a failure.
func evaluate(meas map[string]*measurement, baselineDir string, tol float64) []gate {
	var gates []gate
	missing := func(name, what string) {
		gates = append(gates, gate{Name: name, Skipped: true, Pass: true, Detail: "missing " + what})
	}
	for i, s := range sections {
		root, err := loadJSON(baselineDir, s.file)
		if err != nil {
			if i == 0 || sections[i-1].file != s.file {
				missing(s.skip, s.file)
			}
			continue
		}
		if !s.ready(meas, root) {
			missing(s.skip, s.what)
			continue
		}
		for _, sp := range s.gates {
			if g, ok := sp.eval(s, meas, root, tol); ok {
				gates = append(gates, g)
			} else if sp.skip != "" {
				missing(sp.name, sp.skip)
			}
		}
	}
	return gates
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baselineDir = flag.String("baseline-dir", ".", "directory holding the committed BENCH_*.json baselines")
		tolerance   = flag.Float64("tolerance", 0.25, "default allowed relative regression before a gate fails; baselines override per gate via gate_tolerances")
		out         = flag.String("out", "", "write the full evaluation as JSON to this file (CI artifact)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: benchgate [flags] bench-log [bench-log...]")
	}

	meas := make(map[string]*measurement)
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		for name, m := range parseBenchOutput(string(data)) {
			meas[name] = m
		}
	}
	if len(meas) == 0 {
		log.Fatal("no benchmark result lines found in the given logs")
	}

	rep := buildReport(meas, *baselineDir, *tolerance)
	for _, g := range rep.Gates {
		status := "PASS"
		if g.Skipped {
			status = "SKIP"
		} else if !g.Pass {
			status = "FAIL"
		}
		fmt.Printf("%-4s %-32s measured=%.4g limit=%.4g baseline=%.4g %s\n",
			status, g.Name, g.Measured, g.Limit, g.Baseline, g.Detail)
	}
	if *out != "" {
		data, err := rep.encode()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if !rep.Pass {
		log.Fatal("perf gate failed")
	}
}

// buildReport evaluates every gate and folds the verdicts into the -out
// report.
func buildReport(meas map[string]*measurement, baselineDir string, tol float64) report {
	rep := report{Tolerance: tol, Gates: evaluate(meas, baselineDir, tol), Raw: meas, Pass: true}
	for _, g := range rep.Gates {
		if !g.Skipped && !g.Pass {
			rep.Pass = false
		}
	}
	return rep
}

// encode renders the report as the -out file's bytes.
func (r report) encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
