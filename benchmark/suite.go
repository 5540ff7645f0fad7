package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// suite runs whole workloads as child processes of this binary, one
// process per workload run, so every run's peak RSS is its own and runs
// cannot warm each other's heaps.
type suite struct {
	exe  string
	args []string // flags every child gets (seed, seconds, dirs, ...)
}

// runChild runs one workload once and returns its reported result.
func (s *suite) runChild(name string, trace int) (*runResult, error) {
	args := append([]string{"-workload", name, "-trace", strconv.Itoa(trace)}, s.args...)
	cmd := exec.Command(s.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res runResult
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, fmt.Errorf("%s: bad result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs the four gated workloads in turn and prints every metric
// by name with its unit; it returns the process's exit code.
func (s *suite) runAll(names []string, trace int) int {
	code := 0
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== %s\n", name)
		res, err := s.runChild(name, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		fmt.Printf("%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
		for _, m := range sortedKeys(res.Metrics) {
			fmt.Printf("  %-32s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// worsening is how much worse b is than a, as a share of a: positive
// when b is worse in the metric's direction.
func (d metricDef) worsening(a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA runs the benchmark twice, the two sets interleaved run by run
// (A, B, A, B, ... per workload), and compares the sets' medians of every
// end-to-end metric: two sets of runs of the same code must agree within
// the metric's bound in both directions. It returns the exit code.
func (s *suite) runAA(names []string, runs int) int {
	code := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for i := range sets {
				fmt.Fprintf(os.Stderr, "== %s, set %c, run %d of %d\n", name, 'A'+i, r+1, runs)
				res, err := s.runChild(name, 0)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s did not produce a correct result: %v\n", name, err)
					return 1
				}
				for m, v := range res.Metrics {
					sets[i][m] = append(sets[i][m], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			diff := math.Max(d.worsening(a, b), d.worsening(b, a))
			verdict := "ok"
			if diff > d.bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-15s %-12s A %12.6g  B %12.6g  diff %6.2f%%  bound %5.1f%%  %s\n",
				name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}

// lastLine returns the last non-empty line of a child's standard output.
func lastLine(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\n' {
			return b[i+1:]
		}
	}
	return b
}
