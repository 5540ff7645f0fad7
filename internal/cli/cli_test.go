package cli

import (
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"twopcp"
)

// TestServeIdempotent pins the DefaultServeMux regression: before Serve
// owned its mux, a second call panicked with a duplicate /metrics
// registration (daemon restart in tests, or CLI + daemon in one process).
func TestServeIdempotent(t *testing.T) {
	reg := twopcp.NewRegistry()
	// Both calls must return without panicking; the listeners themselves
	// are fire-and-forget (errors are logged, not fatal).
	Serve("127.0.0.1:0", reg)
	Serve("127.0.0.1:0", reg)
}

// TestAdminMuxEndpoints drives the admin surface through its mux: the
// Prometheus exposition and the explicitly-registered pprof handlers.
func TestAdminMuxEndpoints(t *testing.T) {
	reg := twopcp.NewRegistry()
	reg.Counter("test.counter").Add(3)
	srv := httptest.NewServer(adminMux(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "twopcp_test_counter_total 3") {
		t.Fatalf("/metrics: code %d, body %q", code, body)
	}
	for _, gauge := range []string{"twopcp_heap_inuse_bytes", "twopcp_heap_goal_bytes"} {
		if !regexp.MustCompile(`(?m)^` + gauge + ` [1-9][0-9]*$`).MatchString(body) {
			t.Fatalf("/metrics has no nonzero %s gauge: %q", gauge, body)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}

	// Without a registry there is no /metrics, but pprof still serves.
	bare := httptest.NewServer(adminMux(nil))
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/metrics without registry: code %d, want 404", resp.StatusCode)
	}
}

// TestWriteFactorCSVByteIdentity pins the export format bit-for-bit: one
// row per line, %g values, commas, "\n" line ends, no trailing artifacts.
// The crash-recovery and daemon integration tests compare these files
// byte-for-byte, so the buffered rewrite must not move a single byte.
func TestWriteFactorCSVByteIdentity(t *testing.T) {
	m := &twopcp.Matrix{Rows: 3, Cols: 3, Data: make([]float64, 9)}
	vals := [][]float64{
		{1.5, -2, 3e-10},
		{0.1, 123456789012345, -0.000125},
		{math.Pi, 0, math.Copysign(0, -1)},
	}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	path := filepath.Join(t.TempDir(), "factors.csv")
	if err := WriteFactorCSV(path, m); err != nil {
		t.Fatalf("WriteFactorCSV: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "1.5,-2,3e-10\n" +
		"0.1,1.23456789012345e+14,-0.000125\n" +
		"3.141592653589793,0,-0\n"
	if string(got) != want {
		t.Fatalf("CSV bytes changed:\n got %q\nwant %q", got, want)
	}
}
