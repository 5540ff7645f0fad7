package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the metric lists
// the runs report from and to the limits of the format.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}

	if len(b.Workloads) != len(gatedWorkloads) {
		t.Fatalf("%d workloads listed, the benchmark gates %d", len(b.Workloads), len(gatedWorkloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name, "")
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, gatedWorkloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v, the code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, %d reported (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d is %+v, the code has %+v", i, m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// TestQuickSmoke runs every workload for one op on toy shapes, untraced
// and traced, and checks that each run verifies its outputs and reports
// exactly the metrics BENCHMARK.json names, none of the end-to-end ones 0.
// It then checks the zeros that say a layer did not run: checkpoints only
// in refine_durable, no decomposition layer in query_mix, no serving
// layer in a decomposition.
func TestQuickSmoke(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "twopcpd"), "./cmd/twopcpd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build twopcpd: %v\n%s", err, out)
	}
	b := loadBenchmarkJSON(t)
	layers := map[string]map[string]metricValue{}
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, minOps: 1, quick: true, trace: traced, binDir: bin, workDir: t.TempDir()}
			run, want := w.run, len(b.EndToEnd)
			if traced {
				run, want = w.trace, len(b.PerLayer)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, res.failures)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s (trace %v): %d metrics reported, want %d", w.name, traced, len(res.Metrics), want)
			}
			if traced {
				layers[w.name] = res.Metrics
				for _, m := range b.PerLayer {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s: traced run reports %q as %+v, want unit %q", w.name, m.Name, got, m.Unit)
					}
				}
				continue
			}
			for _, m := range b.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s: untraced run reports %q as %+v, want a positive value in %q", w.name, m.Name, got, m.Unit)
				}
			}
		}
	}
	for name, m := range layers {
		ckpt := m["runstate.ckpt_writes"].Value
		if (name == "refine_durable") != (ckpt > 0) {
			t.Errorf("%s: %g checkpoint writes", name, ckpt)
		}
		decomposes := name != "query_mix"
		for _, layer := range []string{"phase1.run_ms", "refine.run_ms", "blockstore.puts", "tfile.read_mb"} {
			if (m[layer].Value > 0) != decomposes {
				t.Errorf("%s: %s = %g", name, layer, m[layer].Value)
			}
		}
		for _, layer := range []string{"jobs.cell_ms", "serve.topk_us", "factorsnap.open_ms"} {
			if (m[layer].Value > 0) == decomposes {
				t.Errorf("%s: %s = %g", name, layer, m[layer].Value)
			}
		}
	}
}

// TestGeneratorIsSeeded: the same seed writes the same file, another
// seed another file.
func TestGeneratorIsSeeded(t *testing.T) {
	spec := tensorSpec{dims: []int{12, 10, 8}, tiles: []int{2, 2, 1}, genRank: 3, noise: 0.05}
	sum := func(seed int64) [32]byte {
		path := filepath.Join(t.TempDir(), "x.tptl")
		if err := spec.generate(path, seed); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(raw)
	}
	if sum(3) != sum(3) {
		t.Error("seed 3 produced two different files")
	}
	if sum(3) == sum(4) {
		t.Error("seeds 3 and 4 produced the same file")
	}
}
