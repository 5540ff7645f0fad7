package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"twopcp/internal/serve"
)

// Route is one API endpoint: the Go 1.22 mux pattern it registers under
// and a short summary. The table below is the single source of truth for
// the daemon's surface — the server builds its mux from it, and the
// docs test in the root package cross-checks docs/API.md against it in
// both directions, so an endpoint cannot be added, removed or renamed
// without the documentation moving in lockstep.
type Route struct {
	// Method is the HTTP method.
	Method string
	// Pattern is the path pattern ({id}, {mode} wildcards).
	Pattern string
	// Summary is a one-line description (mirrored in docs/API.md).
	Summary string

	handler func(*Server, http.ResponseWriter, *http.Request)
}

// Routes is the daemon's complete HTTP API surface.
var Routes = []Route{
	{"GET", "/healthz", "liveness probe", (*Server).handleHealth},
	{"GET", "/v1/jobs", "list all jobs", (*Server).handleList},
	{"POST", "/v1/jobs", "submit a job (JSON spec referencing a tensor path)", (*Server).handleSubmit},
	{"POST", "/v1/jobs/upload", "submit a job with the tensor bytes as the request body", (*Server).handleUpload},
	{"GET", "/v1/jobs/{id}", "job status", (*Server).handleGet},
	{"GET", "/v1/jobs/{id}/events", "stream job progress events (SSE)", (*Server).handleEvents},
	{"POST", "/v1/jobs/{id}/cancel", "cancel a queued or running job (checkpointing first)", (*Server).handleCancel},
	{"POST", "/v1/jobs/{id}/resume", "requeue a canceled/interrupted/quarantined/failed job", (*Server).handleResume},
	{"GET", "/v1/jobs/{id}/result", "result summary JSON (done jobs)", (*Server).handleResult},
	{"GET", "/v1/jobs/{id}/factors/{mode}", "download one factor matrix as CSV (done jobs)", (*Server).handleFactor},
	{"GET", "/v1/jobs/{id}/query/cell", "reconstruct one tensor cell from the factor snapshot (done jobs)", (*Server).handleQueryCell},
	{"GET", "/v1/jobs/{id}/query/block", "reconstruct a dense sub-block from the factor snapshot (done jobs)", (*Server).handleQueryBlock},
	{"GET", "/v1/jobs/{id}/query/topk", "top-k entities in one mode by reconstructed score (done jobs)", (*Server).handleQueryTopK},
	{"GET", "/v1/jobs/{id}/query/nn", "nearest neighbors of an entity in factor-row space (done jobs)", (*Server).handleQueryNN},
}

// Server serves the jobs API over a Manager.
type Server struct {
	m *Manager
	// freeBytes reports the bytes an unprivileged writer may still add to
	// the file system holding dir (statfs), the cap on an upload.
	freeBytes func(dir string) (int64, error)
}

// SpecHeader is the request header carrying the JSON-encoded Spec on
// upload submissions (POST /v1/jobs/upload), whose body is the raw
// tensor bytes.
const SpecHeader = "X-Twopcp-Spec"

// NewServer returns a Server over m.
func NewServer(m *Manager) *Server { return &Server{m: m, freeBytes: freeBytes} }

// Handler builds the API handler from the Routes table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range Routes {
		h := r.handler
		mux.HandleFunc(r.Method+" "+r.Pattern, func(w http.ResponseWriter, req *http.Request) {
			h(s, w, req)
		})
	}
	return mux
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as the JSON response body with the given status:
// compact, one line and a newline. v is encoded before anything is sent,
// so a value JSON cannot carry (a NaN or ±Inf) is a 500 with the error
// envelope, not the status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeEncodeFailure(w, status, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeEncodeFailure answers 500 for a response of the given status that
// could not be encoded, and logs it: it is a server fault.
func writeEncodeFailure(w http.ResponseWriter, status int, err error) {
	err = fmt.Errorf("jobs: encode %d response: %w", status, err)
	log.Print(err)
	body, _ := json.Marshal(apiError{Error: err.Error()})
	writeBody(w, http.StatusInternalServerError, append(body, '\n'))
}

// writeBody sends a whole JSON body with its length, in one Write, under
// the response write deadline.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	setWriteDeadline(w)
	w.WriteHeader(status)
	w.Write(body) // a failure means the client is gone or too slow; nobody is left to tell
}

// responseWriteTimeout bounds the writing of one response, so a client
// that stops reading cannot hold a handler (and its buffers) forever.
// /events is exempt: it streams for as long as a job runs. A variable
// only so tests can shorten it.
var responseWriteTimeout = 60 * time.Second

// setWriteDeadline gives the response about to be written
// responseWriteTimeout from now; net/http lifts the deadline once the
// response is finished, so it never reaches the connection's next
// request. A writer without deadlines (a test recorder) stays unbounded.
func setWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(responseWriteTimeout))
}

// writeErr writes the JSON error envelope. Not-found, draining and
// validation errors map to 404, 503 and 400/409 at the call sites.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// errStatus maps manager errors to HTTP statuses: unknown job → 404,
// draining → 503, anything else → the fallback.
func errStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return fallback
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.m.List()})
}

// maxSpecBytes bounds the body of POST /v1/jobs, a Spec of a few hundred
// bytes of JSON.
const maxSpecBytes = 1 << 20

// decodeSpec reads the Spec of a POST /v1/jobs body; a body that is not
// one is a *SpecError.
func decodeSpec(body io.Reader) (Spec, error) {
	var spec Spec
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		return spec, &SpecError{fmt.Errorf("bad spec: %w", err)}
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, err)
		return
	}
	job, err := s.m.Submit(spec, nil)
	if err != nil {
		writeErr(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, job)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if h := r.Header.Get(SpecHeader); h != "" {
		if err := json.Unmarshal([]byte(h), &spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad %s header: %w", SpecHeader, err))
			return
		}
	} else if err := specFromQuery(r.URL.Query(), &spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The upload may take at most the free bytes of the store's file
	// system, read now: a declared length past that is refused unread,
	// and a body that runs past it is cut off there.
	free, err := s.freeBytes(s.m.store.Root())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("jobs: free space of the job store: %w", err))
		return
	}
	if r.ContentLength > free {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("upload of %d bytes exceeds the job store's %d free bytes", r.ContentLength, free))
		return
	}
	job, err := s.m.Submit(spec, http.MaxBytesReader(w, r.Body, free))
	if err != nil {
		status := errStatus(err, http.StatusBadRequest)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("upload exceeds the job store's %d free bytes", free)
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, job)
}

// specFromQuery fills the few spec fields expressible as query
// parameters (?rank=10&iters=50&seed=1) for curl-friendly uploads
// without the JSON header.
func specFromQuery(q url.Values, spec *Spec) error {
	geti := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad query parameter %s=%q", name, v)
			}
			*dst = n
		}
		return nil
	}
	if err := geti("rank", &spec.Rank); err != nil {
		return err
	}
	if err := geti("parts", &spec.Parts); err != nil {
		return err
	}
	if err := geti("iters", &spec.MaxIters); err != nil {
		return err
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad query parameter seed=%q", v)
		}
		spec.Seed = n
	}
	if v := q.Get("schedule"); v != "" {
		spec.Schedule = v
	}
	if v := q.Get("replacement"); v != "" {
		spec.Replacement = v
	}
	return nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		writeErr(w, errStatus(err, http.StatusConflict), err)
		return
	}
	job, err := s.m.Get(id)
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	job, err := s.m.Resume(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	if job.State != StateDone || job.Result == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s has no result (state %q)", job.ID, job.State))
		return
	}
	// Same fields as the CLI's -json output, so result files compare
	// against local runs once both are normalised (jq -S .).
	writeJSON(w, http.StatusOK, struct {
		Dims         []int     `json:"dims"`
		Fit          float64   `json:"fit"`
		VirtualIters int       `json:"virtual_iters"`
		Converged    bool      `json:"converged"`
		FitTrace     []float64 `json:"fit_trace"`
		RunStats     any       `json:"run_stats"`
	}{job.Dims, job.Result.Fit, job.Result.VirtualIters, job.Result.Converged,
		job.Result.FitTrace, job.Result.RunStats})
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.m.Get(id)
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	if job.State != StateDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s has no factors (state %q)", id, job.State))
		return
	}
	mode, err := strconv.Atoi(r.PathValue("mode"))
	if err != nil || mode < 0 || mode >= job.Modes {
		if job.Modes == 0 {
			writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has no factor matrices", id))
		} else {
			writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has modes 0..%d", id, job.Modes-1))
		}
		return
	}
	f, err := os.Open(s.m.Store().FactorPath(id, mode))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/csv")
	setWriteDeadline(w)
	http.ServeContent(w, r, fmt.Sprintf("factors-mode%d.csv", mode), time.Time{}, f)
}

// testHookEventsSubscribed runs between handleEvents' fan-out subscribe
// and its state snapshot — the window the terminal-race regression test
// widens deterministically. A no-op outside tests.
var testHookEventsSubscribed = func() {}

// handleEvents streams the job's event feed as Server-Sent Events: each
// event is one SSE message whose event field is the trace event name and
// whose data field is the event's one-line JSON. The stream opens with a
// synthetic job.state snapshot and ends after a terminal job.state event
// (or when the client disconnects). A ": keepalive" comment goes out
// during idle stretches so proxies keep the connection open.
//
// Subscription order matters: the handler subscribes to the fan-out
// BEFORE snapshotting the job state. A terminal transition that lands in
// between is then caught by the snapshot (fetched after), and one that
// lands after the snapshot arrives through the channel — either way the
// stream terminates. Snapshotting first left a window where the terminal
// job.state event was published to a fan-out with no subscribers and the
// handler looped on keepalives forever.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := s.m.Watch(id, 256)
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	defer cancel()
	testHookEventsSubscribed()
	job, err := s.m.Get(id)
	if err != nil {
		writeErr(w, errStatus(err, http.StatusInternalServerError), err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Opening snapshot so a late subscriber knows where the job stands
	// even if no further events ever arrive.
	fmt.Fprintf(w, "event: job.state\ndata: {\"state\":%q}\n\n", job.State)
	flusher.Flush()
	if job.State.Terminal() {
		return
	}

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case e, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Name, e.JSON())
			flusher.Flush()
			if e.Name == "job.state" {
				if j, err := s.m.Get(id); err == nil && j.State.Terminal() {
					return
				}
			}
		}
	}
}

// maxBlockCells caps one block-reconstruct response; larger requests
// should page, not hold a worker and a contiguous buffer of this size.
const maxBlockCells = 1 << 20

// queryModel resolves the request's job to its query model, writing the
// error response (404 unknown, 409 not done, 500 unreadable snapshot)
// itself when it returns nil.
func (s *Server) queryModel(w http.ResponseWriter, r *http.Request) (*serve.Model, string) {
	id := r.PathValue("id")
	mdl, err := s.m.QueryModel(id)
	if err != nil {
		status := errStatus(err, http.StatusConflict)
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		} else if job, gerr := s.m.Get(id); gerr == nil && job.State == StateDone {
			// Done job whose snapshot could not be opened or rebuilt.
			status = http.StatusInternalServerError
		}
		writeErr(w, status, err)
		return nil, id
	}
	return mdl, id
}

// parseIntList parses a comma-separated index list ("3,0,7"). When skip
// is non-negative, the entry at that position must be "*" (a placeholder
// for the swept mode) and parses as -1.
func parseIntList(s string, skip int) ([]int, error) {
	if s == "" {
		return nil, errors.New("empty index list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		if i == skip {
			if p != "*" {
				return nil, fmt.Errorf("position %d is the swept mode; write it as *", i)
			}
			out[i] = -1
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad index %q", p)
		}
		out[i] = n
	}
	return out, nil
}

// queryInt reads an integer query parameter with a default.
func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, v)
	}
	return n, nil
}

func (s *Server) handleQueryCell(w http.ResponseWriter, r *http.Request) {
	mdl, _ := s.queryModel(w, r)
	if mdl == nil {
		return
	}
	at, err := parseIntList(r.URL.Query().Get("at"), -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("at: %w", err))
		return
	}
	v, err := mdl.Reconstruct(at)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := getQueryBuf()
	defer resp.release()
	resp.ints(`{"at":`, at)
	resp.float(`,"value":`, v)
	writeQuery(w, resp)
}

func (s *Server) handleQueryBlock(w http.ResponseWriter, r *http.Request) {
	mdl, _ := s.queryModel(w, r)
	if mdl == nil {
		return
	}
	q := r.URL.Query()
	lo, err := parseIntList(q.Get("lo"), -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("lo: %w", err))
		return
	}
	hi, err := parseIntList(q.Get("hi"), -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("hi: %w", err))
		return
	}
	if len(lo) == len(hi) {
		cells := 1
		for n := range lo {
			if hi[n] > lo[n] {
				cells *= hi[n] - lo[n]
			}
		}
		if cells > maxBlockCells {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("block of %d cells exceeds the %d-cell limit; page the request", cells, maxBlockCells))
			return
		}
	}
	resp := getQueryBuf()
	defer resp.release()
	vals, err := mdl.ReconstructBlock(lo, hi, resp.vals)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp.vals = vals
	resp.ints(`{"lo":`, lo)
	resp.ints(`,"hi":`, hi)
	resp.floats(`,"values":`, vals)
	writeQuery(w, resp)
}

func (s *Server) handleQueryTopK(w http.ResponseWriter, r *http.Request) {
	mdl, _ := s.queryModel(w, r)
	if mdl == nil {
		return
	}
	q := r.URL.Query()
	mode, err := queryInt(q, "mode", -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k, err := queryInt(q, "k", 10)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	at, err := parseIntList(q.Get("at"), mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("at: %w", err))
		return
	}
	resp := getQueryBuf()
	defer resp.release()
	res, err := mdl.TopK(mode, at, k, resp.scored)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp.scored = res
	resp.int(`{"mode":`, mode)
	resp.ints(`,"at":`, at)
	resp.int(`,"k":`, k)
	resp.results(`,"results":`, res)
	writeQuery(w, resp)
}

func (s *Server) handleQueryNN(w http.ResponseWriter, r *http.Request) {
	mdl, _ := s.queryModel(w, r)
	if mdl == nil {
		return
	}
	q := r.URL.Query()
	mode, err := queryInt(q, "mode", -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	index, err := queryInt(q, "index", -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k, err := queryInt(q, "k", 10)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := getQueryBuf()
	defer resp.release()
	res, err := mdl.NN(mode, index, k, resp.scored)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp.scored = res
	resp.int(`{"mode":`, mode)
	resp.int(`,"index":`, index)
	resp.int(`,"k":`, k)
	resp.results(`,"results":`, res)
	writeQuery(w, resp)
}
