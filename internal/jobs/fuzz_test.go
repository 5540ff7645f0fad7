package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
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

// FuzzJobRecord feeds arbitrary job.json bytes through Store.Get.
// Contract: no panic; a refused record is an error wrapping
// ErrCorruptRecord; an accepted one is a job of its directory in a known
// state, and what Put would write of it reads back as the same job.
func FuzzJobRecord(f *testing.F) {
	store, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	job, err := store.Create(Spec{Input: "/data/x.tptl", Rank: 3, Seed: 4}, nil, time.Unix(100, 0).UTC())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(store.Dir(job.ID), recordName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"queued"`), []byte(`"paused"`), 1))
	f.Add(bytes.Replace(valid, []byte(job.ID), []byte("j000002"), 1))
	f.Add([]byte(`{"id":"j000001","state":"done","created":"2020-01-01T00:00:00+05:00",` +
		`"dims":[4,5,6],"modes":3,"result":{"fit":0.5,"fit_trace":[0.1,0.5],"run_stats":{}}}`))
	f.Add([]byte(`{"id":"j000001","state":"done","created":"yesterday"}`))
	f.Add([]byte(`{"id":"j000001","state":"failed","spec":{"rank":"3"}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(store.Dir(job.ID), recordName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := store.Get(job.ID)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Get refused %q with %v, not an ErrCorruptRecord", data, err)
			}
			return
		}
		if got.ID != job.ID || !got.State.known() {
			t.Fatalf("Get accepted job %q in state %q from the record of %s", got.ID, got.State, job.ID)
		}
		put, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("an accepted record cannot be written back: %v", err)
		}
		var back Job
		if err := json.Unmarshal(put, &back); err != nil {
			t.Fatalf("a written-back record does not decode: %v", err)
		}
		if again, _ := json.MarshalIndent(&back, "", "  "); !bytes.Equal(again, put) {
			t.Fatalf("record changes on a write-back round trip:\n%s\n%s", put, again)
		}
	})
}

// FuzzSpec feeds arbitrary POST /v1/jobs bodies through the submission's
// decode and Spec.Options, which normalizes. Contract: no panic; a refused
// spec is a *SpecError; an accepted one is normalized for good (a second
// Options changes nothing) and survives the job record's JSON unchanged.
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{"input":"/data/x.tptl","rank":4}`,
		`{"rank":8,"parts":3,"schedule":"MC","replacement":"LRU","buffer":0.33,"iters":40,"tol":1e-6}`,
		`{"rank":2,"constraint":"ridge","lambda":0.1,"accelerator":"tucker","phase0_rank":3,"sketch_oversample":2}`,
		`{"rank":2,"workers":2,"kernel_workers":1,"prefetch":2,"io_workers":2,"out_of_core":true,"retry":3,"seed":-9}`,
		`{"rank":0}`,
		`{"rank":2,"schedule":"XX"}`,
		`{"rank":2,"accelerator":"sketched"}`,
		`{"rank":"2"}`,
		`{"rank":2,"buffer":-0}`,
		`{"rank":1e400}`,
		`{"rank":2} trailing`,
		`[`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err == nil {
			_, err = spec.Options("ckpt", "store", false)
		}
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("spec %q refused with %v, not a *SpecError", body, err)
			}
			return
		}
		again := spec
		if _, err := again.Options("ckpt", "store", false); err != nil || again != spec {
			t.Fatalf("a second Options changed %+v to %+v (%v)", spec, again, err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil || back != spec {
			t.Fatalf("spec %+v comes back from its JSON as %+v (%v)", spec, back, err)
		}
	})
}
