// Command twopcpd is the 2PCP decomposition daemon: a long-running HTTP
// service that accepts decomposition jobs, runs them on a worker pool
// through the same pipeline as the twopcp CLI, streams their progress as
// Server-Sent Events, and survives restarts without losing work.
//
// Usage:
//
//	twopcpd -data /var/lib/twopcp [-listen :7117] [-admin :7118] [-jobs N]
//
// Every job lives in its own directory under -data: a durably installed
// job record, the run's checkpoint directory, and the exported factor
// CSVs. On SIGTERM the daemon drains — running jobs finish their
// in-flight step, write a checkpoint, and the process exits with code 3,
// the same contract as the CLIs. A restarted daemon requeues the
// interrupted jobs and resumes them from their checkpoints, producing
// factors bit-identical to an uninterrupted run.
//
// The API is documented in docs/API.md; the service walkthrough is
// docs/service.md. The -admin listener serves net/http/pprof and a
// Prometheus /metrics endpoint with daemon job counters plus the
// library's run metrics aggregated across jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"twopcp"
	"twopcp/internal/cli"
	"twopcp/internal/jobs"
	"twopcp/internal/mat"
)

// Connection timeouts of the API listener. A client gets readHeaderTimeout
// to send its request line and headers, and an idle keep-alive connection
// is closed after idleTimeout. There is no write timeout: /events streams
// Server-Sent Events for as long as a job runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("twopcpd: ")

	var (
		dataDir = flag.String("data", "", "job store directory (required); each job gets a subdirectory with its record, checkpoints and factors")
		listen  = flag.String("listen", ":7117", "API listen address")
		admin   = flag.String("admin", "", "admin listen address for net/http/pprof and Prometheus /metrics (empty = off)")
		workers = flag.Int("jobs", 0, "concurrent decomposition jobs (0 = number of CPUs)")
	)
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	store, err := jobs.OpenStore(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	reg := twopcp.NewRegistry()
	mgr, err := jobs.NewManager(store, jobs.Config{Workers: *workers, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	if *admin != "" {
		cli.Serve(*admin, reg)
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           jobs.NewServer(mgr).Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("serving on %s (data %s)", *listen, *dataDir)
	log.Printf("kernels: %s", mat.KernelPath())

	// The shared drain contract: first SIGTERM/SIGINT starts the drain,
	// a second one kills the process. Running jobs checkpoint and land in
	// state "interrupted"; the next daemon start requeues and resumes
	// them bit-exactly.
	stop := cli.InstallDrain("twopcpd")
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-stop:
	}

	// Drain the pool first — running jobs checkpoint and their event
	// streams end with a terminal job.state, so SSE clients disconnect on
	// their own — then shut the listener down, hard-closing whatever is
	// left after the grace period.
	mgr.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	cancel()
	srv.Close()
	log.Printf("drained; checkpointed jobs resume on next start")
	os.Exit(cli.ExitDrained)
}
