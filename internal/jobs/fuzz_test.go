package jobs

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzQueryParams feeds arbitrary query strings to the parameter parsers
// of the query and upload routes, parsed the way the handlers parse them
// (r.URL.Query(), errors dropped). Contract: no panic; an accepted index
// list has one entry per comma-separated field, -1 at the swept mode and
// Atoi's value elsewhere; an accepted integer is Atoi's value or the
// default when the parameter is absent; an upload spec takes the given
// rank, parts, iters and seed or names the parameter it refuses.
func FuzzQueryParams(f *testing.F) {
	for _, s := range []string{
		"mode=2&at=3,7,*&k=3",
		"mode=0&index=3&k=3",
		"at=3,7,11",
		"lo=0,0,0&hi=2,2,1",
		"rank=2&seed=9&iters=50&parts=3&schedule=HO&replacement=FOR",
		"mode=1&at=*,*,4",
		"at=,&k=-1&mode=99999999999999999999",
		"at=%zz&k=+5&seed=-0x10",
		"at=3;7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		at := q.Get("at")
		for skip := -1; skip < 4; skip++ {
			out, err := parseIntList(at, skip)
			if err != nil {
				continue
			}
			parts := strings.Split(at, ",")
			if len(out) != len(parts) {
				t.Fatalf("parseIntList(%q, %d) = %v: %d entries for %d fields", at, skip, out, len(out), len(parts))
			}
			for i, p := range parts {
				want := -1
				if i != skip {
					want, _ = strconv.Atoi(p)
				}
				if out[i] != want {
					t.Fatalf("parseIntList(%q, %d)[%d] = %d, want %d", at, skip, i, out[i], want)
				}
			}
		}
		for _, name := range []string{"mode", "index", "k"} {
			n, err := queryInt(q, name, 10)
			if err != nil {
				continue
			}
			want := 10
			if v := q.Get(name); v != "" {
				want, _ = strconv.Atoi(v)
			}
			if n != want {
				t.Fatalf("queryInt(%q, %q) = %d, want %d", raw, name, n, want)
			}
		}
		var spec Spec
		if err := specFromQuery(q, &spec); err != nil {
			if !strings.HasPrefix(err.Error(), "bad query parameter ") {
				t.Fatalf("specFromQuery(%q): %v", raw, err)
			}
			return
		}
		for name, got := range map[string]int{"rank": spec.Rank, "parts": spec.Parts, "iters": spec.MaxIters} {
			if v := q.Get(name); v != "" {
				if want, _ := strconv.Atoi(v); got != want {
					t.Fatalf("specFromQuery(%q): %s = %d, want %d", raw, name, got, want)
				}
			}
		}
		if v := q.Get("seed"); v != "" {
			if want, _ := strconv.ParseInt(v, 10, 64); spec.Seed != want {
				t.Fatalf("specFromQuery(%q): seed = %d, want %d", raw, spec.Seed, want)
			}
		}
	})
}
