package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"twopcp/internal/jobs"
)

// frontEnds are the two command lines that configure a run: a local run
// and submit. outOfCore names the flag each binds to Spec.OutOfCore.
var frontEnds = []struct {
	name, outOfCore string
	build           func() (*flag.FlagSet, *jobs.Spec)
}{
	{"local run", "store", func() (*flag.FlagSet, *jobs.Spec) {
		fs, r := localFlags()
		return fs, &r.spec
	}},
	{"submit", "out-of-core", func() (*flag.FlagSet, *jobs.Spec) {
		fs := flag.NewFlagSet("twopcp submit", flag.ContinueOnError)
		spec, _ := submitFlags(fs)
		return fs, spec
	}},
}

// boundFlags maps each jobs.Spec field to the flags that write it: every
// flag of a fresh flag set is set, one at a time, to a value other than
// its default, and the Spec fields that moved are recorded.
func boundFlags(t *testing.T, build func() (*flag.FlagSet, *jobs.Spec)) map[string][]string {
	t.Helper()
	bound := make(map[string][]string)
	fs, base := build()
	fs.VisitAll(func(f *flag.Flag) {
		probe, spec := build()
		var err error
		for _, v := range []string{"7", "true", "7s"} {
			if err = probe.Set(f.Name, v); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("-%s: no probe value sets it: %v", f.Name, err)
		}
		was, now := reflect.ValueOf(*base), reflect.ValueOf(*spec)
		for i := 0; i < was.NumField(); i++ {
			if !reflect.DeepEqual(was.Field(i).Interface(), now.Field(i).Interface()) {
				field := was.Type().Field(i).Name
				bound[field] = append(bound[field], f.Name)
			}
		}
	})
	return bound
}

// TestSpecFlagsCoverSpec: under both front-ends every jobs.Spec field is
// written by exactly one flag — Input by -in, OutOfCore by -store locally
// and -out-of-core under submit, every other field by the shared table.
func TestSpecFlagsCoverSpec(t *testing.T) {
	for _, fe := range frontEnds {
		bound := boundFlags(t, fe.build)
		for _, f := range reflect.VisibleFields(reflect.TypeOf(jobs.Spec{})) {
			if flags := bound[f.Name]; len(flags) != 1 {
				t.Errorf("%s: Spec.%s is written by flags %v, want exactly one", fe.name, f.Name, flags)
			}
		}
		if got := bound["Input"]; !slices.Equal(got, []string{"in"}) {
			t.Errorf("%s: Spec.Input is written by %v, want [in]", fe.name, got)
		}
		if got := bound["OutOfCore"]; !slices.Equal(got, []string{fe.outOfCore}) {
			t.Errorf("%s: Spec.OutOfCore is written by %v, want [%s]", fe.name, got, fe.outOfCore)
		}
	}
}

// TestAPIDocsSpecFlags: the "Meaning (CLI flag)" column of docs/API.md's
// spec table names exactly the flags that write each field, under either
// front-end, and every Spec field has a row.
func TestAPIDocsSpecFlags(t *testing.T) {
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| Field | Type | Meaning (CLI flag) | Default |"
	_, table, ok := strings.Cut(string(data), header+"\n")
	if !ok {
		t.Fatalf("docs/API.md has no spec table headed %q", header)
	}
	table, _, _ = strings.Cut(table, "\n\n")

	fields := make(map[string]string) // JSON name → Spec field
	for _, f := range reflect.VisibleFields(reflect.TypeOf(jobs.Spec{})) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fields[name] = f.Name
	}
	want := make(map[string][]string) // Spec field → flags, both front-ends
	for _, fe := range frontEnds {
		for field, flags := range boundFlags(t, fe.build) {
			for _, fl := range flags {
				if !slices.Contains(want[field], fl) {
					want[field] = append(want[field], fl)
				}
			}
		}
	}

	flagRe := regexp.MustCompile("`-([a-z0-9-]+)`")
	documented := make(map[string]bool)
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the |---| rule
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("spec table row %q does not have 4 cells", line)
		}
		name := strings.Trim(cells[0], " `")
		field, ok := fields[name]
		if !ok {
			t.Errorf("docs/API.md documents %q, which is not a Spec field", name)
			continue
		}
		documented[field] = true
		var got []string
		for _, m := range flagRe.FindAllStringSubmatch(cells[2], -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		slices.Sort(want[field])
		if !slices.Equal(got, want[field]) {
			t.Errorf("docs/API.md row %q names flags %v; the flags that write Spec.%s are %v", name, got, field, want[field])
		}
	}
	for name, field := range fields {
		if !documented[field] {
			t.Errorf("Spec.%s (%q) has no row in docs/API.md's spec table", field, name)
		}
	}
}
