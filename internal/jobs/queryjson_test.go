package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
	"twopcp/internal/serve"
)

// jsonFloat is the oracle: what encoding/json writes for v.
func jsonFloat(t testing.TB, v float64) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	return string(b)
}

func checkAppendFloat(t testing.TB, v float64) {
	t.Helper()
	if got, want := string(appendFloat(nil, v)), jsonFloat(t, v); got != want {
		t.Fatalf("appendFloat(%#016x) = %s, encoding/json writes %s", math.Float64bits(v), got, want)
	}
}

// floatSeeds are the edges of appendFloat's paths: zero and subnormals
// (strconv), the integer shortcut, the 'e' thresholds, the exponent
// widths and the ends of the power-of-ten table.
func floatSeeds() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 5e-324, math.Float64frombits(1<<52 - 1),
		math.SmallestNonzeroFloat64 * (1 << 52), math.MaxFloat64,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 0.1, 1.0 / 3, 2.0 / 3, 1, -1,
		1e-6, 1e-7, 1e-10, 1e-100, 1e-307, 1e20, 1e21, 1e22, 1e100,
		123456789012345678, 9007199254740993, 0.3, 5e-7, 4.9e-7,
	}
	for _, x := range []float64{1e-6, 1e21} {
		vs = append(vs, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for e := 15; e <= 23; e++ {
		vs = append(vs, math.Pow(10, float64(e)))
	}
	return vs
}

// TestAppendFloatMatchesEncodingJSON holds appendFloat to encoding/json on
// the seeds and their negations, every power of two, random bit
// patterns, values shaped like reconstructions, integers below 2⁵³ and
// k/1000.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range floatSeeds() {
		checkAppendFloat(t, v)
		checkAppendFloat(t, -v)
	}
	for e := -1074; e <= 1023; e++ {
		checkAppendFloat(t, math.Ldexp(1, e))
		checkAppendFloat(t, math.Ldexp(3, e-1))
	}
	rng := rand.New(rand.NewSource(1))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v)
		}
		checkAppendFloat(t, 0.3*rng.Float64()-0.15)
		checkAppendFloat(t, float64(rng.Int63n(1<<53)))
		checkAppendFloat(t, float64(i)/1000)
	}
}

// FuzzAppendFloat: for any bit pattern of a finite float64, appendFloat
// writes the bytes json.Marshal does.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatSeeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if v := math.Float64frombits(u); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v)
		}
	})
}

// TestDigits8 checks digits8 against every x < 10⁸ (every 101st with
// -short).
func TestDigits8(t *testing.T) {
	step := uint64(1)
	if testing.Short() {
		step = 101
	}
	for x := uint64(0); x < 1e8; x += step {
		w, y := digits8(x), uint64(0)
		for k := 0; k < 8; k++ {
			c := w >> (8 * k) & 0xff
			if c > 9 {
				t.Fatalf("digits8(%d) = %#016x: byte %d is not a digit", x, w, k)
			}
			y = 10*y + c
		}
		if y != x {
			t.Fatalf("digits8(%d) = %#016x", x, w)
		}
	}
}

// floorLog10 is ⌊log₁₀ v⌋ for v > 0, exactly, starting from the estimate.
func floorLog10(v *big.Rat, est int) int {
	atMost := func(j int) bool { // 10^j ≤ v
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(iabs(j))), nil)
		r := new(big.Rat).SetInt(p)
		if j < 0 {
			r.Inv(r)
		}
		return r.Cmp(v) <= 0
	}
	for !atMost(est) {
		est--
	}
	for atMost(est + 1) {
		est++
	}
	return est
}

func iabs(j int) int {
	if j < 0 {
		return -j
	}
	return j
}

func pow2Rat(e int) *big.Rat {
	p := new(big.Int).Lsh(big.NewInt(1), uint(iabs(e)))
	r := new(big.Rat).SetInt(p)
	if e < 0 {
		r.Inv(r)
	}
	return r
}

// TestSchubfachTable checks the three logarithm shortcuts at every
// exponent Schubfach passes them, and every table entry g against
// (g−1)·2ʳ ≤ 10⁻ᵏ < g·2ʳ with 2¹²⁵ ≤ g < 2¹²⁶.
func TestSchubfachTable(t *testing.T) {
	for q := qMin; q <= 971; q++ {
		est := int(math.Floor(float64(q) * math.Log10(2)))
		if got, want := flog10pow2(q), floorLog10(pow2Rat(q), est); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, got, want)
		}
		threeQ := new(big.Rat).Mul(big.NewRat(3, 4), pow2Rat(q))
		if got, want := flog10threeQuartersPow2(q), floorLog10(threeQ, est); got != want {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	table := pow10Table()
	for k := kMin; k <= kMax; k++ {
		// flog2pow10(-k): the largest j with 2^j ≤ 10^-k.
		p := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(iabs(k))), nil))
		if k > 0 {
			p.Inv(p)
		}
		j := flog2pow10(-k)
		if pow2Rat(j).Cmp(p) > 0 || pow2Rat(j+1).Cmp(p) <= 0 {
			t.Fatalf("flog2pow10(%d) = %d is not ⌊log₂ 10^%d⌋", -k, j, -k)
		}
		e := table[k-kMin]
		g := new(big.Int).Lsh(new(big.Int).SetUint64(e[0]), 63)
		g.Or(g, new(big.Int).SetUint64(e[1]))
		if e[1] >= 1<<63 || g.Cmp(lo) < 0 || g.Cmp(hi) >= 0 {
			t.Fatalf("k=%d: g = %v outside [2^125, 2^126)", k, g)
		}
		r := pow2Rat(j - 125)
		gr := new(big.Rat).Mul(new(big.Rat).SetInt(g), r)
		g1r := new(big.Rat).Mul(new(big.Rat).SetInt(new(big.Int).Sub(g, big.NewInt(1))), r)
		if g1r.Cmp(p) > 0 || gr.Cmp(p) <= 0 {
			t.Fatalf("k=%d: g = %v does not bracket 10^%d", k, g, -k)
		}
	}
}

// servedSnapshot runs a small job and replaces its factor snapshot with
// λ = 1 and the given factors before any query opens it. It returns the
// job's path below the server root, the snapshot's model for the oracle,
// and the manager's API handler.
func servedSnapshot(t *testing.T, factors []*mat.Matrix) (string, *serve.Model, http.Handler) {
	t.Helper()
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 5, 8, 8, 8)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	t.Cleanup(m.Drain)
	job, err := m.Submit(Spec{Input: tensor, Rank: 2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateDone)
	lambda := make([]float64, factors[0].Cols)
	for f := range lambda {
		lambda[f] = 1
	}
	path := m.Store().SnapshotPath(job.ID)
	if err := factorsnap.Write(path, lambda, factors, nil); err != nil {
		t.Fatal(err)
	}
	mdl, err := serve.Open(path, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdl.Close() })
	return "/v1/jobs/" + job.ID, mdl, NewServer(m).Handler()
}

func randomFactor(rng *rand.Rand, rows, cols int, scale float64) *mat.Matrix {
	f := &mat.Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range f.Data {
		f.Data[i] = scale * rng.NormFloat64()
	}
	return f
}

// TestQueryBodiesMatchEncodingJSON: each query route's body is, byte for
// byte, what json.NewEncoder(w).Encode writes for the route's response
// struct over the engine's answer with a nil dst, including null results
// (nn on a one-entity mode), a clamped k, a one-cell block, values in 'e'
// notation and the repeated requests that reuse pooled buffers.
func TestQueryBodiesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Mode 0's last row is tiny, so cells and scores through it print in
	// 'e' notation.
	f0 := randomFactor(rng, 6, 3, 1)
	for c := 0; c < 3; c++ {
		f0.Data[5*3+c] *= 1e-8
	}
	job, mdl, h := servedSnapshot(t, []*mat.Matrix{f0, randomFactor(rng, 1, 3, 0.5), randomFactor(rng, 5, 3, 2)})
	ts := httptest.NewServer(h)
	defer ts.Close()

	type (
		cellResp struct {
			At    []int   `json:"at"`
			Value float64 `json:"value"`
		}
		blockResp struct {
			Lo     []int     `json:"lo"`
			Hi     []int     `json:"hi"`
			Values []float64 `json:"values"`
		}
		topkResp struct {
			Mode    int            `json:"mode"`
			At      []int          `json:"at"`
			K       int            `json:"k"`
			Results []serve.Scored `json:"results"`
		}
		nnResp struct {
			Mode    int            `json:"mode"`
			Index   int            `json:"index"`
			K       int            `json:"k"`
			Results []serve.Scored `json:"results"`
		}
	)
	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cell := func(at ...int) any {
		return cellResp{at, must(mdl.Reconstruct(at)).(float64)}
	}
	block := func(lo, hi []int) any {
		return blockResp{lo, hi, must(mdl.ReconstructBlock(lo, hi, nil)).([]float64)}
	}
	topk := func(mode int, at []int, k int) any {
		return topkResp{mode, at, k, must(mdl.TopK(mode, at, k, nil)).([]serve.Scored)}
	}
	nn := func(mode, index, k int) any {
		return nnResp{mode, index, k, must(mdl.NN(mode, index, k, nil)).([]serve.Scored)}
	}
	cases := []struct {
		path string
		want any
	}{
		{"/query/cell?at=1,0,2", cell(1, 0, 2)},
		{"/query/cell?at=5,0,4", cell(5, 0, 4)},
		{"/query/block?lo=0,0,0&hi=6,1,5", block([]int{0, 0, 0}, []int{6, 1, 5})},
		{"/query/block?lo=2,0,3&hi=3,1,4", block([]int{2, 0, 3}, []int{3, 1, 4})},
		{"/query/topk?mode=0&at=*,0,1&k=3", topk(0, []int{-1, 0, 1}, 3)},
		{"/query/topk?mode=2&at=5,0,*&k=100", topk(2, []int{5, 0, -1}, 100)},
		{"/query/topk?mode=1&at=2,*,3", topk(1, []int{2, -1, 3}, 10)},
		{"/query/nn?mode=0&index=2&k=3", nn(0, 2, 3)},
		{"/query/nn?mode=2&index=4&k=50", nn(2, 4, 50)},
		{"/query/nn?mode=1&index=0&k=4", nn(1, 0, 4)},
	}
	if cases[9].want.(nnResp).Results != nil {
		t.Fatalf("nn on the one-entity mode = %+v, want nil results", cases[9].want)
	}
	sawExp := false
	// Twice over, so the second round reuses the first's pooled buffers.
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(c.want); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + job + c.path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.path, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: body\n%s\nencoding/json writes\n%s", c.path, got, want.Bytes())
			}
			if resp.ContentLength != int64(len(got)) {
				t.Fatalf("%s: Content-Length %d for a %d-byte body", c.path, resp.ContentLength, len(got))
			}
			sawExp = sawExp || bytes.Contains(got, []byte("e-"))
		}
	}
	if !sawExp {
		t.Fatal("no value went out in 'e' notation; the tiny row no longer reaches one")
	}
}

// TestNonFiniteAnswersAre500: a value JSON cannot carry — here cells and
// scores that overflow to ±Inf, and nn distances of Inf−Inf = NaN — is a
// 500 with the error envelope, never a 200 with an empty body.
func TestNonFiniteAnswersAre500(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	job, _, h := servedSnapshot(t, []*mat.Matrix{randomFactor(rng, 4, 2, 1e200), randomFactor(rng, 3, 2, 1e200), randomFactor(rng, 4, 2, 1e200)})
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{
		"/query/cell?at=1,1,1",
		"/query/block?lo=0,0,0&hi=2,2,2",
		"/query/topk?mode=0&at=*,1,1&k=2",
		"/query/nn?mode=0&index=1&k=2",
	} {
		resp, err := http.Get(ts.URL + job + path)
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		decodeBody(t, resp, http.StatusInternalServerError, &e)
		if !strings.Contains(e.Error, "json: unsupported value") {
			t.Fatalf("%s: error %q", path, e.Error)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct{ FitTrace []float64 }{[]float64{0.5, math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON of a NaN: status %d, body %q", rec.Code, rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("writeJSON of a NaN: body %q (%v)", rec.Body, err)
	}
}

// smallBufListener shrinks every accepted connection's send buffer, so a
// response far larger than the socket buffers stalls when the client
// stops reading.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096) // best effort; the response is ~100× larger still
	}
	return c, err
}

// TestStalledClientReleasesHandler: a client that requests a large block
// and never reads it holds the handler only until the write deadline.
func TestStalledClientReleasesHandler(t *testing.T) {
	defer func(d time.Duration) { responseWriteTimeout = d }(responseWriteTimeout)
	responseWriteTimeout = 200 * time.Millisecond

	done := make(chan struct{}, 1)
	rng := rand.New(rand.NewSource(6))
	job, _, h := servedSnapshot(t, []*mat.Matrix{randomFactor(rng, 64, 2, 1), randomFactor(rng, 32, 2, 1), randomFactor(rng, 32, 2, 1)})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/query/block") {
			done <- struct{}{}
		}
	}))
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4096) // best effort, as above
	// 64·32·32 = 65 536 cells, about 1.3 MB of JSON, none of it read.
	fmt.Fprintf(conn, "GET %s/query/block?lo=0,0,0&hi=64,32,32 HTTP/1.1\r\nHost: test\r\n\r\n", job)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the block handler is still writing to a client that stopped reading")
	}
}
