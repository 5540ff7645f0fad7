#!/usr/bin/env bash
# Service smoke: run the decomposition daemon end to end through the real
# binaries — submit a job over HTTP, watch it run, SIGTERM the daemon
# mid-job (it must drain: checkpoint, exit 3), restart it over the same
# data directory (it must resume the job without client action), and
# verify the finished factors are bit-for-bit identical to a local CLI
# run of the same spec and that the resume left the restarted daemon's
# /metrics counters alone, then hit the four query routes on the finished job
# (each answer must be one compact JSON line). This is the operational
# story docs/service.md tells, executed literally.
#
# Usage: scripts/service_smoke.sh   (from the repo root; CI runs it as
# the service job in .github/workflows/ci.yml)
set -euo pipefail

work="$(mktemp -d "${TMPDIR:-/tmp}/twopcp-service.XXXXXX")"
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build binaries"
go build -o "$work/twopcp" ./cmd/twopcp
go build -o "$work/twopcpd" ./cmd/twopcpd
go build -o "$work/tensorgen" ./cmd/tensorgen

port=7163
admin_port=7164
server="http://localhost:$port"
data="$work/data"

start_daemon() {
  "$work/twopcpd" -data "$data" -listen "localhost:$port" -admin "localhost:$admin_port" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    curl -fs "$server/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died during startup" >&2; exit 1; }
    sleep 0.1
  done
  echo "daemon did not become healthy" >&2
  exit 1
}

echo "== generate input and local reference run"
"$work/tensorgen" -kind lowrank -dims 30x30x30 -rank 2 -noise 0 \
  -tiles 2x2x2 -seed 11 -out "$work/x.tptl"
# Same spec the job will carry: long enough (tol disabled) that the drain
# lands mid-run, checkpointing every schedule step. Phase 2 takes a few
# hundred milliseconds on a 2-vCPU box.
common_flags=(-rank 3 -parts 3 -buffer 0.5 -iters 1500 -tol=-1 -seed 11)
"$work/twopcp" -in "$work/x.tptl" "${common_flags[@]}" -out-prefix "$work/ref"

echo "== start daemon and submit"
start_daemon
job="$("$work/twopcp" submit -server "$server" -in "$work/x.tptl" \
  "${common_flags[@]}" -checkpoint-steps 1)"
echo "submitted $job"

echo "== wait for the job to start checkpointing, scrape /metrics (running job, heap gauges)"
ckpt="$data/$job/ckpt/phase2-0.ckpt"
for _ in $(seq 1 300); do
  [ -f "$ckpt" ] && break
  sleep 0.1
done
[ -f "$ckpt" ] || { echo "job never reached a Phase-2 checkpoint" >&2; exit 1; }
# Into a file first: under pipefail, head closing the pipe early would
# fail the script with SIGPIPE.
curl -fs "http://localhost:$admin_port/metrics" -o "$work/prom.txt"
head -n 5 "$work/prom.txt"
grep -q '^twopcp_jobs_running 1' "$work/prom.txt" \
  || { echo "/metrics does not show the running job" >&2; exit 1; }
for gauge in twopcp_heap_inuse_bytes twopcp_heap_goal_bytes; do
  grep -q "^$gauge [1-9][0-9]*\$" "$work/prom.txt" \
    || { echo "/metrics has no $gauge gauge" >&2; exit 1; }
done

echo "== SIGTERM the daemon mid-job (drain contract: checkpoint, exit 3)"
kill -TERM "$daemon_pid"
rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 3 ] || { echo "drained daemon exited $rc, want 3" >&2; exit 1; }
state="$(grep -o '"state": *"[a-z]*"' "$data/$job/job.json")"
echo "durable record after drain: $state"
case "$state" in
  *interrupted*|*running*|*queued*) ;; # all three auto-requeue on restart
  *) echo "unexpected post-drain state: $state" >&2; exit 1 ;;
esac

echo "== restart the daemon; the job must resume and finish on its own"
start_daemon
for _ in $(seq 1 600); do
  state="$("$work/twopcp" status -server "$server" "$job" | grep -o '"state": *"[a-z]*"' | head -n 1)"
  case "$state" in
    *done*) break ;;
    *failed*|*quarantined*|*canceled*) echo "job landed in $state" >&2; exit 1 ;;
  esac
  sleep 0.1
done
case "$state" in *done*) ;; *) echo "job never finished (last state: $state)" >&2; exit 1 ;; esac

echo "== scrape the restarted daemon's /metrics: a resume must not rewind its counters"
# The restarted daemon submitted nothing, so its jobs_submitted counter is
# absent or zero; the first daemon's 1 showing here means the resumed job
# wrote checkpointed counters back into the daemon's registry.
curl -fs "http://localhost:$admin_port/metrics" -o "$work/prom-restarted.txt"
if grep -q '^twopcp_jobs_submitted_total [1-9]' "$work/prom-restarted.txt"; then
  echo "restarted daemon reports $(grep '^twopcp_jobs_submitted_total' "$work/prom-restarted.txt"), want 0" >&2
  exit 1
fi

echo "== download factors, diff against the local reference run"
for m in 0 1 2; do
  curl -fs "$server/v1/jobs/$job/factors/$m" -o "$work/svc-mode$m.csv"
  cmp "$work/svc-mode$m.csv" "$work/ref-mode$m.csv" \
    || { echo "factor mode $m differs from the local CLI run" >&2; exit 1; }
done

echo "== query the resumed job: every route answers in one JSON line"
for q in 'cell?at=3,7,11' 'block?lo=0,0,0&hi=4,4,3' 'topk?mode=2&at=3,7,*&k=3' 'nn?mode=0&index=3&k=3'; do
  curl -fs "$server/v1/jobs/$job/query/$q" -o "$work/query.json" \
    || { echo "query/$q failed" >&2; exit 1; }
  [ "$(wc -l < "$work/query.json")" -eq 1 ] && [ "$(tail -c 1 "$work/query.json")" = "" ] \
    || { echo "query/$q is not one line:" >&2; cat "$work/query.json" >&2; exit 1; }
  echo "query/$q: $(cut -c 1-100 "$work/query.json")"
done

kill -TERM "$daemon_pid"; rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 3 ] || { echo "idle drain exited $rc, want 3" >&2; exit 1; }

echo "service smoke OK: drain exited 3, restart resumed, counters not rewound, factors bit-identical, queries one line each"
