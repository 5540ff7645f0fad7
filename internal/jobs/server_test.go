package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"twopcp/internal/serve"
)

// TestServerEndpoints drives every route in the Routes table through a
// real HTTP round trip — the coverage check at the end fails if a route
// is added to the table without a request here, keeping this test (and
// through the docs test, docs/API.md) honest about the full surface.
func TestServerEndpoints(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 2)
	defer m.Drain()

	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	hit := make(map[string]bool)
	record := func(method, pattern string) { hit[method+" "+pattern] = true }

	// GET /healthz
	record("GET", "/healthz")
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	// POST /v1/jobs — path submission.
	record("POST", "/v1/jobs")
	spec := Spec{Input: tensor, Rank: 2, Seed: 7}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decodeBody(t, resp, http.StatusCreated, &job)
	if job.ID == "" || job.Spec.Parts != 2 {
		t.Fatalf("submitted job = %+v", job)
	}
	// Bad spec → 400 with the JSON error envelope.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"rank":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Fatal("400 without error envelope")
	}

	// POST /v1/jobs/upload — tensor bytes in the body, spec in the header.
	record("POST", "/v1/jobs/upload")
	raw, err := os.ReadFile(tensor)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs/upload", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(Spec{Rank: 2, Seed: 7})
	req.Header.Set(SpecHeader, string(specJSON))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var uploaded Job
	decodeBody(t, resp, http.StatusCreated, &uploaded)
	if uploaded.Spec.Input == "" {
		t.Fatal("upload job has no stored input path")
	}

	// GET /v1/jobs/{id} — poll both jobs to done.
	record("GET", "/v1/jobs/{id}")
	waitHTTPState(t, ts.URL, job.ID, StateDone)
	waitHTTPState(t, ts.URL, uploaded.ID, StateDone)
	// Unknown ID → 404.
	if code := statusOf(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}

	// GET /v1/jobs — both jobs listed.
	record("GET", "/v1/jobs")
	var list struct {
		Jobs []*Job `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("list = %d jobs, want 2", len(list.Jobs))
	}

	// GET /v1/jobs/{id}/result — same shape as the CLI's -json output.
	record("GET", "/v1/jobs/{id}/result")
	var result struct {
		Dims     []int     `json:"dims"`
		Fit      float64   `json:"fit"`
		FitTrace []float64 `json:"fit_trace"`
		RunStats map[string]any
	}
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/result", &result)
	if len(result.Dims) != 3 || result.Fit < 0.9 || len(result.FitTrace) == 0 {
		t.Fatalf("result = %+v", result)
	}

	// GET /v1/jobs/{id}/factors/{mode} — byte-identical to the on-disk CSV.
	record("GET", "/v1/jobs/{id}/factors/{mode}")
	for mode := 0; mode < 3; mode++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/factors/%d", ts.URL, job.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("factor %d: status %d err %v", mode, resp.StatusCode, err)
		}
		want, err := os.ReadFile(m.Store().FactorPath(job.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("downloaded mode-%d factors differ from stored CSV", mode)
		}
	}
	if code := statusOf(t, ts.URL+"/v1/jobs/"+job.ID+"/factors/9"); code != http.StatusNotFound {
		t.Fatalf("out-of-range mode status = %d, want 404", code)
	}

	// GET /v1/jobs/{id}/query/* — the factor-snapshot query endpoints,
	// cross-checked against the library API over the same snapshot file.
	record("GET", "/v1/jobs/{id}/query/cell")
	record("GET", "/v1/jobs/{id}/query/block")
	record("GET", "/v1/jobs/{id}/query/topk")
	record("GET", "/v1/jobs/{id}/query/nn")
	if _, err := os.Stat(m.Store().SnapshotPath(job.ID)); err != nil {
		t.Fatalf("done job wrote no factor snapshot: %v", err)
	}
	mdl, err := serve.Open(m.Store().SnapshotPath(job.ID), serve.Config{})
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	defer mdl.Close()

	var cell struct {
		At    []int   `json:"at"`
		Value float64 `json:"value"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/query/cell?at=3,4,5", &cell)
	wantCell, err := mdl.Reconstruct([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	// JSON float64 encoding round-trips exactly, so == is the right check.
	if cell.Value != wantCell {
		t.Fatalf("query/cell = %g, want %g", cell.Value, wantCell)
	}

	var block struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/query/block?lo=1,2,3&hi=3,5,6", &block)
	wantBlock, err := mdl.ReconstructBlock([]int{1, 2, 3}, []int{3, 5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Values) != len(wantBlock) {
		t.Fatalf("query/block returned %d values, want %d", len(block.Values), len(wantBlock))
	}
	for i := range wantBlock {
		if block.Values[i] != wantBlock[i] {
			t.Fatalf("query/block[%d] = %g, want %g", i, block.Values[i], wantBlock[i])
		}
	}

	var topk struct {
		Results []serve.Scored `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/query/topk?mode=0&at=*,2,3&k=5", &topk)
	wantTopK, err := mdl.TopK(0, []int{-1, 2, 3}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != 5 {
		t.Fatalf("query/topk returned %d results, want 5", len(topk.Results))
	}
	for i, r := range topk.Results {
		if r != wantTopK[i] {
			t.Fatalf("query/topk[%d] = %+v, want %+v", i, r, wantTopK[i])
		}
	}

	var nn struct {
		Results []serve.Scored `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/query/nn?mode=1&index=4&k=5", &nn)
	wantNN, err := mdl.NN(1, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.Results) != 5 {
		t.Fatalf("query/nn returned %d results, want 5", len(nn.Results))
	}
	for i, r := range nn.Results {
		if r.Index == 4 {
			t.Fatal("query/nn returned the query entity itself")
		}
		if r != wantNN[i] {
			t.Fatalf("query/nn[%d] = %+v, want %+v", i, r, wantNN[i])
		}
	}

	// Query error surface: unknown job → 404, malformed coordinates → 400.
	if code := statusOf(t, ts.URL+"/v1/jobs/j999999/query/cell?at=0,0,0"); code != http.StatusNotFound {
		t.Fatalf("query on unknown job = %d, want 404", code)
	}
	if code := statusOf(t, ts.URL+"/v1/jobs/"+job.ID+"/query/cell?at=zap"); code != http.StatusBadRequest {
		t.Fatalf("query with bad coordinates = %d, want 400", code)
	}
	if code := statusOf(t, ts.URL+"/v1/jobs/"+job.ID+"/query/cell?at=99,0,0"); code != http.StatusBadRequest {
		t.Fatalf("query out of range = %d, want 400", code)
	}

	// GET /v1/jobs/{id}/events — a done job's stream opens with its
	// terminal state and closes immediately.
	record("GET", "/v1/jobs/{id}/events")
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sse, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	if !strings.Contains(string(sse), "event: job.state") || !strings.Contains(string(sse), `"done"`) {
		t.Fatalf("terminal SSE stream = %q", sse)
	}

	// POST /v1/jobs/{id}/cancel + /resume: submit a long job, cancel it
	// mid-run over HTTP, then resume it over HTTP.
	record("POST", "/v1/jobs/{id}/cancel")
	record("POST", "/v1/jobs/{id}/resume")
	big := filepath.Join(dir, "big.tptl")
	writeTensor(t, big, 11, 30, 30, 30)
	body, _ = json.Marshal(longSpec(big))
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var longJob Job
	decodeBody(t, resp, http.StatusCreated, &longJob)

	// Queries against a job that is not done → 409.
	if code := statusOf(t, ts.URL+"/v1/jobs/"+longJob.ID+"/query/cell?at=0,0,0"); code != http.StatusConflict {
		t.Fatalf("query on unfinished job = %d, want 409", code)
	}

	// Watch the long job's live SSE stream while it runs.
	events := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + longJob.ID + "/events")
		if err != nil {
			events <- ""
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var lines []string
		for sc.Scan() && len(lines) < 50 {
			if l := sc.Text(); l != "" {
				lines = append(lines, l)
			}
		}
		events <- strings.Join(lines, "\n")
	}()

	waitHTTPState(t, ts.URL, longJob.ID, StateRunning)
	waitCheckpoint(t, m.Store(), longJob.ID)
	resp, err = http.Post(ts.URL+"/v1/jobs/"+longJob.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var afterCancel Job
	decodeBody(t, resp, http.StatusOK, &afterCancel)
	waitHTTPState(t, ts.URL, longJob.ID, StateCanceled)

	select {
	case stream := <-events:
		if !strings.Contains(stream, "event:") {
			t.Fatalf("live SSE stream carried no events:\n%s", stream)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live SSE watcher never returned")
	}

	resp, err = http.Post(ts.URL+"/v1/jobs/"+longJob.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var resumed Job
	decodeBody(t, resp, http.StatusOK, &resumed)
	if resumed.State != StateQueued {
		t.Fatalf("resumed state = %q, want queued", resumed.State)
	}
	done := waitHTTPState(t, ts.URL, longJob.ID, StateDone)
	if done.Result == nil {
		t.Fatal("resumed job finished without a result")
	}
	// Resuming a done job → 409.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+longJob.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume done job status = %d, want 409", resp.StatusCode)
	}

	// Every route in the table must have been exercised above.
	for _, r := range Routes {
		if !hit[r.Method+" "+r.Pattern] {
			t.Errorf("route %s %s not exercised by this test", r.Method, r.Pattern)
		}
	}
	if len(hit) != len(Routes) {
		t.Errorf("test hits %d patterns, table has %d routes", len(hit), len(Routes))
	}
}

// TestResponsesAreCompact: the four query routes and the job record
// answer in one JSON line — a single newline, at the end — typed
// application/json and decoding to what the engine and the manager say.
func TestResponsesAreCompact(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 3, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()
	job, err := m.Submit(Spec{Input: tensor, Rank: 2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateDone)
	mdl, err := serve.Open(m.Store().SnapshotPath(job.ID), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mdl.Close()

	cell, err := mdl.Reconstruct([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	block, err := mdl.ReconstructBlock([]int{1, 2, 3}, []int{5, 6, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := mdl.TopK(0, []int{-1, 2, 3}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := mdl.NN(1, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	record, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		got  any
		want any
	}{
		{"/query/cell?at=3,4,5", &struct {
			Value float64 `json:"value"`
		}{}, &struct {
			Value float64 `json:"value"`
		}{cell}},
		{"/query/block?lo=1,2,3&hi=5,6,7", &struct {
			Values []float64 `json:"values"`
		}{}, &struct {
			Values []float64 `json:"values"`
		}{block}},
		{"/query/topk?mode=0&at=*,2,3&k=5", &struct {
			Results []serve.Scored `json:"results"`
		}{}, &struct {
			Results []serve.Scored `json:"results"`
		}{topk}},
		{"/query/nn?mode=1&index=4&k=5", &struct {
			Results []serve.Scored `json:"results"`
		}{}, &struct {
			Results []serve.Scored `json:"results"`
		}{nn}},
		{"", &Job{}, record},
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", c.path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%q: Content-Type %q", c.path, ct)
		}
		if bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("\n")) {
			t.Fatalf("%q: body is not one line:\n%s", c.path, body)
		}
		if err := json.Unmarshal(body, c.got); err != nil {
			t.Fatalf("%q: %v", c.path, err)
		}
		// JSON float64 round-trips exactly, so re-encoding both sides
		// compares every value bit for bit.
		got, _ := json.Marshal(c.got)
		want, _ := json.Marshal(c.want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: decoded %s, want %s", c.path, got, want)
		}
	}
}

// TestServerUploadQueryParams covers the curl-friendly query-parameter
// spec form of the upload endpoint.
func TestServerUploadQueryParams(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 2, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	raw, err := os.ReadFile(tensor)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/upload?rank=2&seed=9&iters=50",
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decodeBody(t, resp, http.StatusCreated, &job)
	if job.Spec.Rank != 2 || job.Spec.Seed != 9 || job.Spec.MaxIters != 50 {
		t.Fatalf("query-param spec = %+v", job.Spec)
	}
	waitHTTPState(t, ts.URL, job.ID, StateDone)

	// GET on the upload path falls through to the {id} route and 404s as
	// an unknown job — the JSON error envelope either way.
	if code := statusOf(t, ts.URL+"/v1/jobs/upload?rank=x"); code != http.StatusNotFound {
		t.Fatalf("GET upload = %d, want 404", code)
	}
}

// TestRetiredDeadlineFieldIsIgnored: op_timeout_ms was a Spec field until
// the per-operation deadline it configured — one no store could enforce —
// was removed. A job.json written while the field existed and a client
// that still sends it must both keep working: the field is ignored, which
// is all it ever did.
func TestRetiredDeadlineFieldIsIgnored(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	store, err := OpenStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}

	// A record an older daemon stored and never got to run.
	spec := Spec{Input: tensor, Rank: 2, Seed: 7, MaxRetries: 2}
	spec.normalize()
	stored, err := store.Create(spec, nil, time.Unix(100, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(store.Dir(stored.ID), recordName)
	data, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"retry": 2`), []byte(`"retry": 2, "op_timeout_ms": 30000`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("record has no retry field to extend:\n%s", data)
	}
	if err := os.WriteFile(record, old, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()
	waitState(t, m, stored.ID, StateDone)

	// A submission that still carries the field.
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"input": %q, "rank": 2, "seed": 7, "retry": 2, "op_timeout_ms": 30000}`, tensor)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decodeBody(t, resp, http.StatusCreated, &job)
	if job.Spec.MaxRetries != 2 {
		t.Fatalf("submitted spec = %+v", job.Spec)
	}
	waitHTTPState(t, ts.URL, job.ID, StateDone)
}

// TestRemovedAcceleratorIsRefused: "sketched" was an accelerator until it
// was deleted. A submission naming it is rejected at the API, and a
// job.json an older daemon stored with it becomes a failed job at start-up
// — never silently run as "none" — while the daemon keeps serving.
func TestRemovedAcceleratorIsRefused(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	store, err := OpenStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `unknown accelerator "sketched" (want none or tucker)`

	spec := Spec{Input: tensor, Rank: 2, Seed: 7, Accelerator: "sketched"}
	spec.normalize()
	stored, err := store.Create(spec, nil, time.Unix(100, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(store, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()
	if failed := waitState(t, m, stored.ID, StateFailed); !strings.Contains(failed.Error, want) {
		t.Fatalf("persisted sketched job failed with %q, want %q", failed.Error, want)
	}

	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"input": %q, "rank": 2, "accelerator": "sketched"}`, tensor)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	decodeBody(t, resp, http.StatusBadRequest, &apiErr)
	if !strings.Contains(apiErr.Error, want) {
		t.Fatalf("submit error %q, want %q", apiErr.Error, want)
	}

	body = fmt.Sprintf(`{"input": %q, "rank": 2, "accelerator": "tucker"}`, tensor)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decodeBody(t, resp, http.StatusCreated, &job)
	waitHTTPState(t, ts.URL, job.ID, StateDone)
}

// getJSON fetches url and decodes the 200 response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusOK, v)
}

// decodeBody asserts the status and decodes the JSON body into v.
func decodeBody(t *testing.T, resp *http.Response, want int, v any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d\nbody: %s", resp.StatusCode, want, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode: %v\nbody: %s", err, body)
	}
}

// statusOf returns the status code of a GET.
func statusOf(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// waitHTTPState polls the status endpoint until the job reaches one of
// the wanted states.
func waitHTTPState(t *testing.T, base, id string, want ...State) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var job Job
		getJSON(t, base+"/v1/jobs/"+id, &job)
		for _, s := range want {
			if job.State == s {
				return &job
			}
		}
		if job.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want one of %v", id, job.State, job.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want one of %v", id, job.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitRejectsOversizedSpec: a POST /v1/jobs body over the 1 MiB
// limit is 413 and creates no job, even when it is a valid Spec (here one
// padded with JSON whitespace).
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()

	input, _ := json.Marshal(tensor)
	body := `{"input":` + string(input) + `,"rank":2,` + strings.Repeat(" ", 2<<20) + `"seed":7}`
	rec := httptest.NewRecorder()
	NewServer(m).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\nbody: %s", rec.Code, rec.Body)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("an oversized spec created %d job(s)", len(jobs))
	}
}

// noInputs fails if any job directory under root holds an input file.
func noInputs(t *testing.T, root string) {
	t.Helper()
	inputs, err := filepath.Glob(filepath.Join(root, "*", inputName))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 0 {
		t.Fatalf("a refused upload left %v behind", inputs)
	}
}

// TestUploadBoundedByFreeSpace: an upload may take at most the free bytes
// of the job store's file system. A declared length past them is 413
// before a byte is read; a body of unknown length that runs past them is
// cut off there, 413 too. Neither creates a job or leaves an input file.
func TestUploadBoundedByFreeSpace(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	raw, err := os.ReadFile(tensor)
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, "data")
	_, m := newTestManager(t, root, 1)
	defer m.Drain()
	srv := NewServer(m)
	if free, err := srv.freeBytes(root); err != nil || free <= 0 {
		t.Fatalf("free bytes of the job store = %d, %v", free, err)
	}
	srv.freeBytes = func(string) (int64, error) { return int64(len(raw)) - 1, nil }

	for _, declared := range []bool{true, false} {
		body := bytes.NewReader(raw)
		req := httptest.NewRequest("POST", "/v1/jobs/upload?rank=2", body)
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		var apiErr apiError
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &apiErr) != nil || apiErr.Error == "" {
			t.Fatalf("declared length %v: status %d, body %q; want 413 with the error envelope", declared, rec.Code, rec.Body)
		}
		if read := len(raw) - body.Len(); declared && read != 0 {
			t.Fatalf("a declared oversized upload read %d body bytes before refusing, want 0", read)
		}
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("oversized uploads created %d job(s)", len(jobs))
	}
	noInputs(t, root)

	// At exactly the free bytes the upload goes through.
	srv.freeBytes = func(string) (int64, error) { return int64(len(raw)), nil }
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs/upload?rank=2", bytes.NewReader(raw)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload of exactly the free bytes: status %d, body %q", rec.Code, rec.Body)
	}
}

// TestTruncatedUploadLeavesNothing: a body that ends before its declared
// length (the client went away) fails with io.ErrUnexpectedEOF, answers
// 400 with the error envelope, and leaves neither a job nor its input.
func TestTruncatedUploadLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "data")
	store, m := newTestManager(t, root, 1)
	defer m.Drain()

	cut := io.MultiReader(bytes.NewReader(make([]byte, 4096)), iotest.ErrReader(io.ErrUnexpectedEOF))
	if _, err := m.Submit(Spec{Rank: 2}, cut); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Submit of a cut-off body: %v, want io.ErrUnexpectedEOF", err)
	}
	req := httptest.NewRequest("POST", "/v1/jobs/upload?rank=2", nil)
	req.Body = io.NopCloser(io.MultiReader(bytes.NewReader(make([]byte, 4096)), iotest.ErrReader(io.ErrUnexpectedEOF)))
	req.ContentLength = 1 << 20
	rec := httptest.NewRecorder()
	NewServer(m).Handler().ServeHTTP(rec, req)
	var apiErr apiError
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &apiErr) != nil || !strings.Contains(apiErr.Error, "unexpected EOF") {
		t.Fatalf("truncated upload: status %d, body %q; want 400 naming the cut", rec.Code, rec.Body)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("truncated uploads created %d job(s)", len(jobs))
	}
	noInputs(t, store.Root())
	if entries, err := os.ReadDir(store.Root()); err != nil || len(entries) != 0 {
		t.Fatalf("job store holds %d entries after truncated uploads (%v), want none", len(entries), err)
	}
}
