package twopcp_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort reserves a localhost port for a daemon listener.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches twopcpd and waits for /healthz to come up.
func startDaemon(t *testing.T, bin, data, listen, admin string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	args := []string{"-data", data, "-listen", listen}
	if admin != "" {
		args = append(args, "-admin", admin)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + listen + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, &stderr
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon never became healthy\nstderr: %s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonLifecycle is the end-to-end service contract: submit a job
// over HTTP through the twopcp client, stream its progress, SIGTERM the
// daemon mid-run (drain must checkpoint and exit 3), restart the daemon
// (the job must resume automatically), and download factors that are
// byte-identical to an uninterrupted local CLI run.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")
	daemonBin := buildCmd(t, dir, "twopcpd")

	tpath := filepath.Join(dir, "x.tptl")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "30x30x30", "-rank", "3",
		"-noise", "0.3", "-tiles", "3x3x3", "-seed", "11", "-out", tpath)

	// Uninterrupted local reference run with the same configuration the
	// job will carry.
	runCmd(t, twopcpBin, "-in", tpath, "-rank", "3", "-parts", "3", "-buffer", "0.5",
		"-iters", "1500", "-tol=-1", "-seed", "11",
		"-out-prefix", filepath.Join(dir, "ref"))

	data := filepath.Join(dir, "data")
	listen := freePort(t)
	admin := freePort(t)
	daemon, stderr := startDaemon(t, daemonBin, data, listen, admin)
	server := "http://" + listen

	// Submit through the client subcommand; stdout is the job ID.
	var out bytes.Buffer
	submit := exec.Command(twopcpBin, "submit", "-server", server, "-in", tpath,
		"-rank", "3", "-parts", "3", "-buffer", "0.5", "-iters", "1500",
		"-tol", "-1", "-seed", "11", "-checkpoint-steps", "1")
	submit.Stdout = &out
	submit.Stderr = os.Stderr
	if err := submit.Run(); err != nil {
		t.Fatalf("submit: %v", err)
	}
	jobID := strings.TrimSpace(out.String())
	if jobID == "" {
		t.Fatal("submit printed no job ID")
	}

	// Watch the SSE stream in the background; it must carry events and
	// terminate on its own when the daemon drains the job.
	watchOut := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		watch := exec.Command(twopcpBin, "watch", "-server", server, jobID)
		watch.Stdout = &buf
		watch.Run()
		watchOut <- buf.String()
	}()

	// Wait for the job's Phase-2 checkpoint, scrape the admin /metrics
	// mid-run, then SIGTERM the daemon.
	phase2 := filepath.Join(data, jobID, "ckpt", "phase2-0.ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(phase2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			daemon.Process.Kill()
			t.Fatalf("no Phase-2 checkpoint appeared within 60s\ndaemon stderr: %s", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatalf("admin /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "jobs_running") {
		t.Fatalf("/metrics has no jobs_running gauge:\n%.500s", metrics)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = daemon.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("drained daemon: err = %v, want exit code 3\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("no drain notice on daemon stderr:\n%s", stderr.String())
	}

	select {
	case stream := <-watchOut:
		if !strings.Contains(stream, `"state":"running"`) && !strings.Contains(stream, "job.state") {
			t.Errorf("watch stream carried no state events:\n%.500s", stream)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch subcommand never exited after drain")
	}

	// Restart: the interrupted job requeues and resumes from its
	// checkpoint without any client action.
	listen2 := freePort(t)
	daemon2, stderr2 := startDaemon(t, daemonBin, data, listen2, "")
	server = "http://" + listen2
	defer func() {
		daemon2.Process.Kill()
		daemon2.Wait()
	}()

	deadline = time.Now().Add(120 * time.Second)
	for {
		var status bytes.Buffer
		st := exec.Command(twopcpBin, "status", "-server", server, jobID)
		st.Stdout = &status
		if err := st.Run(); err != nil {
			t.Fatalf("status: %v\ndaemon stderr: %s", err, stderr2.String())
		}
		if strings.Contains(status.String(), `"state": "done"`) {
			break
		}
		if strings.Contains(status.String(), `"failed"`) || strings.Contains(status.String(), `"quarantined"`) {
			t.Fatalf("resumed job ended badly:\n%s", status.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished after restart; last status:\n%s", status.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Downloaded factors must match the uninterrupted local run byte for
	// byte — the whole durability story in one assertion.
	for mode := 0; mode < 3; mode++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/factors/%d", server, jobID, mode))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("factor %d download: status %d err %v", mode, resp.StatusCode, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ref-mode%d.csv", mode)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mode-%d factors differ between drained+restarted service job and local run", mode)
		}
	}
}

// TestDaemonClosesStalledRequest: a client that sends half a request line
// and stops is disconnected once the daemon's header timeout passes,
// instead of holding the connection open for ever.
func TestDaemonClosesStalledRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	daemonBin := buildCmd(t, dir, "twopcpd")
	listen := freePort(t)
	daemon, stderr := startDaemon(t, daemonBin, filepath.Join(dir, "data"), listen, "")
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	conn, err := net.Dial("tcp", listen)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	// The header timeout is 5s; allow as much again before calling the
	// connection held. The daemon may answer 408 before it closes.
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v (read %q)\ndaemon stderr: %s", time.Since(start).Round(time.Millisecond), got, stderr.String())
	}
}
