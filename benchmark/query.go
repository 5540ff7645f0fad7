package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// querySpec is the query_mix workload: a decomposition job run through
// the real twopcpd in set-up, then fixed batches of the four query routes
// over one keep-alive connection. One batch is one op.
type querySpec struct {
	tensor      tensorSpec
	rank, parts int
	// The batch: how many requests of each route, in this order.
	cells, topks, nns, blocks int
	blockEdge                 int // a block query asks for blockEdge³ cells
	k                         int // results per top-k / nearest-neighbour query
}

func queryMix(quick bool) *querySpec {
	q := &querySpec{
		// Mode 0 has twice the rows the engine's 4096-row cache holds, so
		// uniform coordinates keep missing it.
		tensor: tensorSpec{dims: []int{8192, 32, 32}, tiles: []int{8, 1, 1}, genRank: 8, noise: 0.05, centred: true},
		rank:   8, parts: 1,
		cells: 100, topks: 120, nns: 120, blocks: 12, blockEdge: 16, k: 10,
	}
	if quick {
		q.tensor.dims, q.tensor.tiles = []int{64, 16, 16}, []int{2, 1, 1}
		q.rank, q.tensor.genRank = 4, 4
		q.cells, q.topks, q.nns, q.blocks, q.blockEdge = 20, 6, 6, 2, 8
	}
	return q
}

// The four query routes, in batch order.
const (
	routeCell = iota
	routeTopK
	routeNN
	routeBlock
	numRoutes
)

var routeNames = [numRoutes]string{"cell", "topk", "nn", "block"}

// Client-side span names: one per batch, one per request by route.
const spanBatch = "jobs.batch"

var routeSpans = [numRoutes]string{"jobs.cell", "jobs.topk", "jobs.nn", "jobs.block"}

// request is one query with what the oracle needs to check its answer.
type request struct {
	route  int
	path   string // path and query string below /v1/jobs/{id}
	at     []int  // cell, topk (at[0] is the swept mode's placeholder)
	lo, hi []int  // block
	index  int    // nn
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// batch draws the next batch of requests from rng. Top-k and
// nearest-neighbour queries sweep mode 0, the long one.
func (q *querySpec) batch(rng *rand.Rand) []request {
	dims := q.tensor.dims
	randAt := func() []int {
		at := make([]int, len(dims))
		for m, d := range dims {
			at[m] = rng.Intn(d)
		}
		return at
	}
	var reqs []request
	for i := 0; i < q.cells; i++ {
		at := randAt()
		reqs = append(reqs, request{route: routeCell, at: at, path: "/query/cell?at=" + joinInts(at)})
	}
	for i := 0; i < q.topks; i++ {
		at := randAt()
		reqs = append(reqs, request{route: routeTopK, at: at,
			path: fmt.Sprintf("/query/topk?mode=0&k=%d&at=*,%s", q.k, joinInts(at[1:]))})
	}
	for i := 0; i < q.nns; i++ {
		idx := rng.Intn(dims[0])
		reqs = append(reqs, request{route: routeNN, index: idx,
			path: fmt.Sprintf("/query/nn?mode=0&k=%d&index=%d", q.k, idx)})
	}
	for i := 0; i < q.blocks; i++ {
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		for m, d := range dims {
			lo[m] = rng.Intn(d - q.blockEdge + 1)
			hi[m] = lo[m] + q.blockEdge
		}
		reqs = append(reqs, request{route: routeBlock, lo: lo, hi: hi,
			path: "/query/block?lo=" + joinInts(lo) + "&hi=" + joinInts(hi)})
	}
	return reqs
}

// verify checks one response body against the oracle.
func (q *querySpec) verify(m *kruskal, r request, body []byte) error {
	switch r.route {
	case routeCell:
		var resp struct {
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return m.checkCell(r.at, resp.Value)
	case routeBlock:
		var resp struct {
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return m.checkBlock(r.lo, r.hi, resp.Values)
	}
	var resp struct {
		Results []scored `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if r.route == routeTopK {
		scores, scales := m.topKScores(0, r.at)
		return checkRanking("topk", resp.Results, scores, scales, q.k, -1, true)
	}
	dist, scales := m.nnDistances(0, r.index)
	return checkRanking("nn", resp.Results, dist, scales, q.k, r.index, false)
}

// daemon is a running twopcpd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	done    chan error
}

// startDaemon launches binDir/twopcpd on a free loopback port with a
// fresh data directory and waits until it answers /healthz.
func startDaemon(binDir, dataDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(binDir, "twopcpd"), "-data", dataDir, "-listen", addr, "-jobs", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start twopcpd (did run.sh build it?): %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dataDir: dataDir, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.done:
			return nil, fmt.Errorf("twopcpd exited during start-up: %v", werr)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("twopcpd did not answer /healthz: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if that takes more than
// ten seconds, and returns once the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// client issues sequential GETs over one keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

// get reads the whole response into buf (which it resets) and returns
// the status code.
func (c *client) get(path string, buf *bytes.Buffer) (int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// jobTol is the job's Phase-2 tolerance.
const jobTol = 1e-5

// jobStatus is the part of the daemon's job record the benchmark reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Fit float64 `json:"fit"`
	} `json:"result"`
}

// runJob submits the decomposition job and polls until it is done.
func (q *querySpec) runJob(c *client, input string, seed int64) (*jobStatus, error) {
	spec, err := json.Marshal(map[string]any{
		"input": input, "rank": q.rank, "parts": q.parts, "seed": seed,
		"workers": 1, "kernel_workers": 1,
		// Refine until the fit has settled: at the daemon's default
		// tolerance (1e-2 per virtual iteration) Phase 2 stopped anywhere
		// between a fit of 0.74 and 0.94, depending on the seed.
		"tol": jobTol,
	})
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
	}
	var job jobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		status, err := c.get("/v1/jobs/"+job.ID, &buf)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("job status: %d: %s", status, buf.Bytes())
		}
		if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
			return nil, err
		}
		switch job.State {
		case "queued", "running":
			continue
		case "done":
			if job.Result == nil {
				return nil, fmt.Errorf("job %s done without a result", job.ID)
			}
			return &job, nil
		}
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	return nil, fmt.Errorf("job %s still %s after 120 s", job.ID, job.State)
}

// downloadModel reads the job's factor matrices back over the factor
// route: the oracle's view of what the daemon serves.
func (q *querySpec) downloadModel(c *client, id string) (*kruskal, error) {
	m := &kruskal{rank: q.rank, dims: q.tensor.dims}
	var buf bytes.Buffer
	for mode, rows := range m.dims {
		status, err := c.get(fmt.Sprintf("/v1/jobs/%s/factors/%d", id, mode), &buf)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("factors/%d: status %d", mode, status)
		}
		rd := csv.NewReader(&buf)
		rd.FieldsPerRecord = q.rank
		recs, err := rd.ReadAll()
		if err != nil {
			return nil, fmt.Errorf("factors/%d: %w", mode, err)
		}
		if len(recs) != rows {
			return nil, fmt.Errorf("factors/%d: %d rows, want %d", mode, len(recs), rows)
		}
		f := make([]float64, 0, rows*q.rank)
		for _, rec := range recs {
			for _, cell := range rec {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("factors/%d: %w", mode, err)
				}
				f = append(f, v)
			}
		}
		m.factors = append(m.factors, f)
	}
	return m, nil
}

// served is a daemon with a finished job, ready to be queried.
type served struct {
	d     *daemon
	c     *client
	job   *jobStatus
	input string
	jobS  float64 // raw seconds from submit to done, last set-up
}

// setup generates the tensor, starts a daemon and runs the job through
// it, setupRepeats times; the last daemon stays up. It returns the
// calibrated set-up time in seconds and leaves the calibrator reset.
func (q *querySpec) setup(cal *calibrator, cfg runConfig) (*served, float64, error) {
	input := filepath.Join(cfg.workDir, "input.tptl")
	var raw []float64
	var sv *served
	for i := 0; i < setupRepeats; i++ {
		if sv != nil {
			sv.d.stop()
		}
		var err error
		op := cal.bracket(func() {
			if err = q.tensor.generate(input, cfg.seed); err != nil {
				return
			}
			var d *daemon
			if d, err = startDaemon(cfg.binDir, filepath.Join(cfg.workDir, fmt.Sprintf("daemon%d", i))); err != nil {
				return
			}
			sv = &served{d: d, c: newClient(d.base), input: input}
			start := time.Now()
			sv.job, err = q.runJob(sv.c, input, cfg.seed)
			sv.jobS = time.Since(start).Seconds()
		})
		if err != nil {
			if sv != nil {
				sv.d.stop()
			}
			return nil, 0, err
		}
		raw = append(raw, op.wallMS/1e3)
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "setup %d raw %.3f s  job %.3f s\n", i, op.wallMS/1e3, sv.jobS)
		}
	}
	secs := cal.calibrated(raw)
	cal.reset()
	return sv, secs, nil
}

// batchRun is one executed batch: its bodies (for the oracle) and the
// bytes received.
type batchRun struct {
	reqs   []request
	bodies []bytes.Buffer
	bytes  int
	err    error
}

// runBatch sends the batch's requests one after another, keeping every
// body. With a tracer each request is also recorded as a span of op.
func (sv *served) runBatch(b *batchRun, tr *tracer, op int) {
	prefix := "/v1/jobs/" + sv.job.ID
	b.bytes, b.err = 0, nil
	root := 0
	if tr != nil {
		root = tr.begin(spanBatch, 0, op)
		defer func() { tr.end(root, int64(b.bytes)) }()
	}
	for i, r := range b.reqs {
		id := 0
		if tr != nil {
			id = tr.begin(routeSpans[r.route], root, op)
		}
		status, err := sv.c.get(prefix+r.path, &b.bodies[i])
		if tr != nil {
			tr.end(id, int64(b.bodies[i].Len()))
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, b.bodies[i].Bytes())
		}
		if err != nil {
			b.err = fmt.Errorf("%s: %w", r.path, err)
			return
		}
		b.bytes += b.bodies[i].Len()
	}
}

// checkBatch applies the oracle to every response of an executed batch.
func (q *querySpec) checkBatch(m *kruskal, b *batchRun) error {
	if b.err != nil {
		return b.err
	}
	for i, r := range b.reqs {
		if err := q.verify(m, r, b.bodies[i].Bytes()); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
	}
	return nil
}

// queryRun is the timed section's outcome, shared by the untraced and
// the traced run.
type queryRun struct {
	res       *runResult
	sv        *served
	model     *kruskal
	setupS    float64
	plain     []timedOp // batches timed as a whole
	traced    []timedOp // batches also recorded request by request (traced run only)
	tr        *tracer   // the traced batches' spans (traced run only)
	respBytes int       // per batch
	daemonCPU float64   // calibrated ms per batch
	stream    []request // the warm-up batch, for the in-process replay
}

// measure sets up and runs batches for cfg.seconds. In a traced run
// every other batch is recorded request by request, so the two kinds see
// the same machine and their ratio is the tracing overhead.
func (q *querySpec) measure(cfg runConfig, cal *calibrator) (*queryRun, error) {
	sv, setupS, err := q.setup(cal, cfg)
	if err != nil {
		return nil, err
	}
	run := &queryRun{res: newRunResult(), sv: sv, setupS: setupS}
	if cfg.trace {
		run.tr = newTracer()
	}
	run.model, err = q.downloadModel(sv.c, sv.job.ID)
	if err != nil {
		sv.d.stop()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	b := &batchRun{}
	next := func() {
		b.reqs = q.batch(rng)
		if b.bodies == nil {
			b.bodies = make([]bytes.Buffer, len(b.reqs))
		}
	}
	// Warm-up: connection set-up, snapshot mapping, lazy initialisation.
	next()
	run.stream = b.reqs
	sv.runBatch(b, nil, 0)
	if err := q.checkBatch(run.model, b); err != nil {
		sv.d.stop()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}

	pid := sv.d.cmd.Process.Pid
	var cpu time.Duration
	batches := 0
	cal.reset()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minBatches := cfg.minOps
	if cfg.trace {
		minBatches *= 2 // minOps of each kind
	}
	for n := 0; n < minBatches || time.Now().Before(deadline); n++ {
		next()
		var tr *tracer
		if n%2 == 1 {
			tr = run.tr
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			sv.d.stop()
			return nil, err
		}
		op := cal.bracket(func() { sv.runBatch(b, tr, n) })
		cpu1, err := procCPU(pid)
		if err != nil {
			sv.d.stop()
			return nil, err
		}
		// Verification happens between batches, outside the timed
		// interval.
		if !run.res.attempt(q.checkBatch(run.model, b), "batch") {
			continue
		}
		cpu += cpu1 - cpu0
		batches++
		run.respBytes = b.bytes
		if tr != nil {
			run.traced = append(run.traced, op)
		} else {
			run.plain = append(run.plain, op)
		}
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "batch %4d raw %8.2f ms  ref %.3f ms\n", n, op.wallMS, cal.samples[len(cal.samples)-1])
		}
	}
	if batches > 0 {
		// Where the daemon's CPU clock ticks only every 10 ms it is too
		// coarse for one batch: take the whole section's CPU per batch.
		run.daemonCPU = msOf(cpu) / float64(batches) * cal.factor()
	}
	return run, nil
}

func (q *querySpec) runE2E(cfg runConfig) (*runResult, error) {
	cal := newCalibrator()
	run, err := q.measure(cfg, cal)
	if err != nil {
		return nil, err
	}
	rss, rssErr := peakRSSMB(run.sv.d.cmd.Process.Pid)
	run.sv.d.stop()
	res := run.res
	if len(run.plain) == 0 {
		return res, nil
	}
	if rssErr != nil {
		return nil, rssErr
	}
	res.set("setup_s", run.setupS, "s")
	res.set("op_cal_ms", cal.calibrated(wallsOf(run.plain)), "ms")
	res.set("cpu_cal_ms", run.daemonCPU, "ms")
	res.set("peak_rss_mb", rss, "MB")
	res.set("fit", run.sv.job.Result.Fit, "ratio")
	res.set("io_mb", float64(run.respBytes)/1e6, "MB")
	res.note("ops", float64(len(run.plain)))
	res.note("op_raw_ms", median(wallsOf(run.plain)))
	res.note("job_s", run.sv.jobS)
	res.note("ref_pass_ms", median(cal.samples))
	res.note("ref_spread", cal.spread())
	return res, nil
}
