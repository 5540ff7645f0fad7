package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata")

const sampleLog = `goos: linux
goarch: amd64
pkg: twopcp/internal/refine
BenchmarkPhase2Prefetch/sync-2         	      10	181770968 ns/op
BenchmarkPhase2Prefetch/prefetch-2     	      10	 87090878 ns/op
BenchmarkALSSweep/fresh-2              	       3	  9771654 ns/op	   53150 B/op	      41 allocs/op
BenchmarkALSSweep/workspace-2          	       3	  9655172 ns/op	   26938 B/op	      20 allocs/op
BenchmarkALSSweep/mttkrp-per-mode-2    	       3	 12872000 ns/op
BenchmarkPhase0Sketch/lowmlrank-2      	       1	721677487 ns/op	         0.0004354 fit-delta	        21.59 speedup-x
PASS
`

func TestParseBenchOutput(t *testing.T) {
	meas := parseBenchOutput(sampleLog)
	if len(meas) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(meas))
	}
	sync := meas["BenchmarkPhase2Prefetch/sync"]
	if sync == nil || sync.NsPerOp != 181770968 {
		t.Fatalf("sync = %+v", sync)
	}
	ws := meas["BenchmarkALSSweep/workspace"]
	if !ws.hasAllocs || ws.AllocsPerOp != 20 {
		t.Fatalf("workspace allocs = %+v", ws)
	}
	if m := meas["BenchmarkPhase0Sketch/lowmlrank"].Metrics; m["speedup-x"] != 21.59 || m["fit-delta"] != 0.0004354 {
		t.Fatalf("custom metrics lost: %v", m)
	}
}

func TestParseKeepsBestOfRepeatedRuns(t *testing.T) {
	log := `BenchmarkX/a-8   10   200 ns/op   7 allocs/op
BenchmarkX/a-8   10   100 ns/op   9 allocs/op
`
	meas := parseBenchOutput(log)
	m := meas["BenchmarkX/a"]
	if m.NsPerOp != 100 {
		t.Fatalf("ns/op = %v, want min 100", m.NsPerOp)
	}
	if m.AllocsPerOp != 9 {
		t.Fatalf("allocs/op = %v, want max 9", m.AllocsPerOp)
	}
}

// writeBaselines drops minimal BENCH_*.json files matching the committed
// schemas into dir.
func writeBaselines(t *testing.T, dir string) {
	t.Helper()
	files := map[string]any{
		"BENCH_phase2_prefetch.json": map[string]any{
			"speedup": 2.08,
			"results": map[string]any{
				"sync":     map[string]any{"ns_per_op": []float64{181770968}},
				"prefetch": map[string]any{"ns_per_op": []float64{87090878}},
			},
		},
		"BENCH_kernels.json": map[string]any{
			"benchmarks": map[string]any{
				"ALSSweep_dense_64x64x64_rank16_2sweeps": map[string]any{
					"new_workspace":            map[string]any{"ns_per_op": 9655172.0, "allocs_per_op": 20.0},
					"nonneg":                   map[string]any{"overhead_vs_workspace": 1.03},
					"sweep_vs_mttkrp_per_mode": 0.75,
				},
			},
		},
		"BENCH_phase0_sketch.json": map[string]any{
			"speedup":         21.59,
			"fit_delta":       0.00044,
			"gate_tolerances": map[string]any{"phase0-sketch-speedup": 0.5},
		},
		"BENCH_obs.json": map[string]any{
			"counters_overhead": 0.0,
			"trace_overhead":    0.1,
			"results":           map[string]any{"off": map[string]any{"allocs_per_op": 56850.0}},
			"gate_tolerances": map[string]any{
				"obs-counters-overhead": 0.05, "obs-off-allocs": 0.02, "obs-trace-overhead": 0.5,
			},
		},
		"BENCH_resilience.json": map[string]any{
			"retry_overhead":  0.0,
			"gate_tolerances": map[string]any{"resilience-overhead": 0.05},
		},
		"BENCH_serve.json": map[string]any{
			"results": map[string]any{
				"point_read": map[string]any{"ns_per_op": []float64{87.09, 91.26, 94.84}, "allocs_per_op": 0.0},
				"topk":       map[string]any{"ns_per_op": []float64{1025, 1100, 1159}, "allocs_per_op": 0.0},
			},
			"gate_tolerances": map[string]any{"serve-point-read-allocs": 0.0, "serve-topk-allocs": 0.0},
		},
	}
	for name, content := range files {
		data, err := json.Marshal(content)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func gateByName(gates []gate, name string) *gate {
	for i := range gates {
		if gates[i].Name == name {
			return &gates[i]
		}
	}
	return nil
}

func TestGatesPassOnBaselineNumbers(t *testing.T) {
	dir := t.TempDir()
	writeBaselines(t, dir)
	meas := parseBenchOutput(sampleLog)
	gates := evaluate(meas, dir, 0.25)
	for _, g := range gates {
		if !g.Pass {
			t.Errorf("gate %s failed on baseline-identical numbers: %+v", g.Name, g)
		}
	}
	for _, want := range []string{
		"phase2-prefetch-speedup", "als-workspace-allocs", "als-workspace-vs-fresh",
		"als-sweep-vs-mttkrp-per-mode", "phase0-sketch-speedup", "phase0-sketch-fit-delta",
	} {
		if gateByName(gates, want) == nil {
			t.Errorf("gate %s missing", want)
		}
	}
}

// TestPerGateTolerance: a baseline's gate_tolerances entry overrides the
// CLI default for exactly that gate, in both directions.
func TestPerGateTolerance(t *testing.T) {
	dir := t.TempDir()
	writeBaselines(t, dir)

	// 13x against a 21.59x baseline: dead under the default 25% tolerance
	// (limit 16.2x), alive under the baseline's 50% override (limit 10.8x).
	log := `BenchmarkPhase0Sketch/lowmlrank-2   1  721677487 ns/op   0.0004 fit-delta   13.0 speedup-x`
	gates := evaluate(parseBenchOutput(log), dir, 0.25)
	g := gateByName(gates, "phase0-sketch-speedup")
	if g == nil || !g.Pass {
		t.Fatalf("override to 0.5 should pass 13x: %+v", g)
	}
	if g.Tolerance != 0.5 {
		t.Fatalf("gate ran at tolerance %v, want the baseline's 0.5", g.Tolerance)
	}

	// Tighten the same gate below the measurement: now it must fail, and
	// the other baselines' gates must be untouched by the override.
	tight := map[string]any{
		"speedup":         21.59,
		"gate_tolerances": map[string]any{"phase0-sketch-speedup": 0.1},
	}
	data, err := json.Marshal(tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_phase0_sketch.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	gates = evaluate(parseBenchOutput(sampleLog+log), dir, 0.25)
	if g := gateByName(gates, "phase0-sketch-speedup"); g == nil || g.Pass {
		t.Fatalf("tolerance 0.1 (limit 19.4x) should fail 13x: %+v", g)
	}
	if g := gateByName(gates, "phase2-prefetch-speedup"); g == nil || !g.Pass || g.Tolerance != 0.25 {
		t.Fatalf("unrelated gate should keep the CLI default tolerance: %+v", g)
	}
}

func TestGatesCatchRegressions(t *testing.T) {
	dir := t.TempDir()
	writeBaselines(t, dir)

	// Prefetch speedup collapses to ~1x.
	slow := `BenchmarkPhase2Prefetch/sync-2   10  181770968 ns/op
BenchmarkPhase2Prefetch/prefetch-2   10  180000000 ns/op
`
	gates := evaluate(parseBenchOutput(slow), dir, 0.25)
	if g := gateByName(gates, "phase2-prefetch-speedup"); g == nil || g.Pass {
		t.Errorf("speedup collapse not caught: %+v", g)
	}

	// Workspace allocation regression.
	leaky := `BenchmarkALSSweep/fresh-2   3  9771654 ns/op  41 allocs/op
BenchmarkALSSweep/workspace-2   3  9655172 ns/op  131 allocs/op
`
	gates = evaluate(parseBenchOutput(leaky), dir, 0.25)
	if g := gateByName(gates, "als-workspace-allocs"); g == nil || g.Pass {
		t.Errorf("alloc regression not caught: %+v", g)
	}

	// One tensor pass per mode again: the sweep costs more than its
	// standalone MTTKRPs (1.1x, the ratio before the products were shared).
	perMode := `BenchmarkALSSweep/fresh-2   3  9771654 ns/op  41 allocs/op
BenchmarkALSSweep/workspace-2   3  9655172 ns/op  20 allocs/op
BenchmarkALSSweep/mttkrp-per-mode-2   3  8777000 ns/op
`
	gates = evaluate(parseBenchOutput(perMode), dir, 0.25)
	if g := gateByName(gates, "als-sweep-vs-mttkrp-per-mode"); g == nil || g.Pass {
		t.Errorf("lost fiber-product sharing not caught: %+v", g)
	}

	// Phase-0 speedup eroding below the 3x acceptance floor, and the warm
	// start bending the converged fit.
	accel := `BenchmarkPhase0Sketch/lowmlrank-2   1  721677487 ns/op   0.002 fit-delta   2.5 speedup-x
`
	gates = evaluate(parseBenchOutput(accel), dir, 0.25)
	if g := gateByName(gates, "phase0-sketch-speedup"); g == nil || g.Pass {
		t.Errorf("phase0 speedup collapse not caught: %+v", g)
	}
	if g := gateByName(gates, "phase0-sketch-fit-delta"); g == nil || g.Pass {
		t.Errorf("phase0 fit drift not caught: %+v", g)
	}
}

func TestMissingInputsSkipNotFail(t *testing.T) {
	dir := t.TempDir() // no baseline files at all
	gates := evaluate(parseBenchOutput(sampleLog), dir, 0.25)
	for _, g := range gates {
		if !g.Skipped || !g.Pass {
			t.Errorf("gate %s should skip without baselines: %+v", g.Name, g)
		}
	}
}

// TestReportGolden pins the whole -out report — gate names, order, limits,
// tolerances, details and skips — for a recorded run of the CI perf job
// (testdata/perf.log) with every gate evaluated; a partial log, where a
// section's measurements are missing; and no baseline files at all.
// Regenerate with -update after a deliberate change.
func TestReportGolden(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("testdata", "perf.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, log string
		baselines bool
	}{
		{"relative", string(full), true},
		{"partial", sampleLog, true},
		{"nobaselines", string(full), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.baselines {
				writeBaselines(t, dir)
			}
			got, err := buildReport(parseBenchOutput(tc.log), dir, 0.25).encode()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "report-"+tc.name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\n%s", golden, got)
			}
		})
	}
}

// TestEveryBaselineIsGated keeps the committed baselines and the gate table
// in step: every BENCH_*.json at the repository root backs a section, every
// section's file exists, every gate_tolerances key names a gate of its own
// file, and the recorded CI log evaluated against the committed files
// reaches every gate of the table (a baseline key a gate needs cannot go
// missing unnoticed).
func TestEveryBaselineIsGated(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]map[string]bool{} // file → its gates
	total := 0
	for _, s := range sections {
		if gated[s.file] == nil {
			gated[s.file] = map[string]bool{}
		}
		for _, sp := range s.gates {
			gated[s.file][sp.name] = true
		}
		total += len(s.gates)
	}
	for _, path := range files {
		name := filepath.Base(path)
		if gated[name] == nil {
			t.Errorf("%s backs no gate: delete it or add its section", name)
			continue
		}
		doc, err := loadJSON(root, name)
		if err != nil {
			t.Fatal(err)
		}
		tols, _ := doc.(map[string]any)["gate_tolerances"].(map[string]any)
		for gateName := range tols {
			if !gated[name][gateName] {
				t.Errorf("%s: gate_tolerances names %q, which is not one of its gates", name, gateName)
			}
		}
	}
	for file := range gated {
		if _, err := os.Stat(filepath.Join(root, file)); err != nil {
			t.Errorf("a section reads %s: %v", file, err)
		}
	}

	log, err := os.ReadFile(filepath.Join("testdata", "perf.log"))
	if err != nil {
		t.Fatal(err)
	}
	gates := evaluate(parseBenchOutput(string(log)), root, 0.25)
	if len(gates) != total {
		t.Errorf("testdata/perf.log against the committed baselines evaluates %d gates, the table has %d", len(gates), total)
	}
	for _, g := range gates {
		if g.Skipped {
			t.Errorf("gate %s skipped against the committed baselines: %s", g.Name, g.Detail)
		}
	}
}
