package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	// minOps is the least number of timed ops, however short the run.
	minOps  int
	trace   bool
	quick   bool
	verbose bool
	workDir string // scratch for this run; removed when it ends
	binDir  string // where run.sh put the program's binaries
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports: the oracle's verdict, the op counts
// and the metrics by name. notes go to standard error only.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes    map[string]float64
	failures []string
}

func newRunResult() *runResult {
	return &runResult{Metrics: map[string]metricValue{}, notes: map[string]float64{}}
}

// attempt counts one checked operation; err is the oracle's complaint or
// nil. It reports whether the operation passed.
func (r *runResult) attempt(err error, what string) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s %d: %v", what, r.Attempted, err))
		}
		return false
	}
	return true
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *runResult) note(name string, v float64) { r.notes[name] = v }

// emit prints the human-readable lines to log and the contract's JSON
// object as the last line of out.
func (r *runResult) emit(out, log io.Writer) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, f := range r.failures {
		fmt.Fprintln(log, "FAIL", f)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(log, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.notes) {
		fmt.Fprintf(log, "  (%s = %.6g)\n", name, r.notes[name])
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
