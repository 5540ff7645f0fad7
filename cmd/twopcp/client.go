// Client mode: the submit, status, watch and cancel subcommands talk to
// a running twopcpd daemon over its HTTP API (docs/API.md) instead of
// decomposing locally. Unlike the local-run mode — whose stdout is
// pinned empty — client mode writes its machine-readable output (job
// IDs, status JSON, event lines) to stdout for piping.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"twopcp/internal/jobs"
)

// clientMain dispatches one client subcommand and returns its exit code.
func clientMain(cmd string, args []string) int {
	fs := flag.NewFlagSet("twopcp "+cmd, flag.ExitOnError)
	server := fs.String("server", envOr("TWOPCP_SERVER", "http://localhost:7117"), "twopcpd base URL (default $TWOPCP_SERVER)")
	switch cmd {
	case "submit":
		spec, upload := submitFlags(fs)
		fs.Parse(args)
		if spec.Input == "" {
			fs.Usage()
			return 2
		}
		return submit(*server, *spec, *upload)
	case "status":
		fs.Parse(args)
		return status(*server, fs.Args())
	case "watch":
		fs.Parse(args)
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: twopcp watch [-server URL] <job-id>")
			return 2
		}
		return watch(*server, fs.Arg(0))
	case "cancel":
		fs.Parse(args)
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: twopcp cancel [-server URL] <job-id>")
			return 2
		}
		return cancel(*server, fs.Arg(0))
	}
	return 2
}

// submitFlags binds submit's flags on fs: the run configuration through
// the same table as a local run, plus -in, -upload and -out-of-core.
func submitFlags(fs *flag.FlagSet) (*jobs.Spec, *bool) {
	spec := new(jobs.Spec)
	fs.StringVar(&spec.Input, "in", "", "tensor file (required): uploaded with -upload, otherwise submitted as a daemon-host path")
	upload := fs.Bool("upload", false, "upload the tensor bytes instead of submitting the path")
	specFlags(fs, spec)
	fs.BoolVar(&spec.OutOfCore, "out-of-core", false, "keep Phase-2 data units on the daemon's disk")
	return spec, upload
}

// envOr reads an environment default for a flag.
func envOr(name, fallback string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return fallback
}

// submit posts a job and prints its ID to stdout. With upload, the file
// spec.Input names travels as the request body instead of as a path.
func submit(server string, spec jobs.Spec, upload bool) int {
	var resp *http.Response
	var err error
	if upload {
		in := spec.Input
		spec.Input = ""
		specJSON, merr := json.Marshal(spec)
		if merr != nil {
			log.Print(merr)
			return 1
		}
		f, oerr := os.Open(in)
		if oerr != nil {
			log.Print(oerr)
			return 1
		}
		defer f.Close()
		req, rerr := http.NewRequest("POST", server+"/v1/jobs/upload", f)
		if rerr != nil {
			log.Print(rerr)
			return 1
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(jobs.SpecHeader, string(specJSON))
		resp, err = http.DefaultClient.Do(req)
	} else {
		body, merr := json.Marshal(spec)
		if merr != nil {
			log.Print(merr)
			return 1
		}
		resp, err = http.Post(server+"/v1/jobs", "application/json", bytes.NewReader(body))
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	defer resp.Body.Close()
	var job jobs.Job
	if code := decodeOrFail(resp, http.StatusCreated, &job); code != 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "submitted %s (state %s)\n", job.ID, job.State)
	fmt.Println(job.ID)
	return 0
}

// status prints one job (or the whole list) as indented JSON on stdout.
func status(server string, ids []string) int {
	url := server + "/v1/jobs"
	if len(ids) == 1 {
		url += "/" + ids[0]
	} else if len(ids) > 1 {
		fmt.Fprintln(os.Stderr, "usage: twopcp status [-server URL] [job-id]")
		return 2
	}
	resp, err := http.Get(url)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer resp.Body.Close()
	var v json.RawMessage
	if code := decodeOrFail(resp, http.StatusOK, &v); code != 0 {
		return code
	}
	// The daemon answers compact; indent here, for people and greps.
	var out bytes.Buffer
	if err := json.Indent(&out, v, "", "  "); err != nil {
		log.Print(err)
		return 1
	}
	out.WriteByte('\n')
	os.Stdout.Write(out.Bytes())
	return 0
}

// watch streams a job's SSE event feed, printing each event's JSON line
// to stdout until the stream ends (job reached a terminal state) or the
// connection drops.
func watch(server, id string) int {
	resp, err := http.Get(server + "/v1/jobs/" + id + "/events")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return failBody(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			fmt.Println(data)
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		log.Print(err)
		return 1
	}
	return 0
}

// cancel asks the daemon to stop a job.
func cancel(server, id string) int {
	resp, err := http.Post(server+"/v1/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer resp.Body.Close()
	var job jobs.Job
	if code := decodeOrFail(resp, http.StatusOK, &job); code != 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "canceled %s (state %s)\n", job.ID, job.State)
	return 0
}

// decodeOrFail decodes the response body into v when the status matches,
// or prints the server's error envelope and returns a nonzero exit code.
func decodeOrFail(resp *http.Response, want int, v any) int {
	if resp.StatusCode != want {
		return failBody(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// failBody surfaces the server's JSON error envelope on stderr.
func failBody(resp *http.Response) int {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		log.Printf("%s: %s", resp.Status, e.Error)
	} else {
		log.Printf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return 1
}
