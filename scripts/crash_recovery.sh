#!/usr/bin/env bash
# Crash-recovery smoke: generate a tiled tensor, start a checkpointed
# decomposition, SIGKILL it mid-Phase-2, resume it, and verify the resumed
# run's factors and fit trace are bit-for-bit identical to an uninterrupted
# run. Exercises the real binaries end to end — the same path a production
# operator would take after a node failure.
#
# Usage: scripts/crash_recovery.sh   (from the repo root; CI runs it as the
# crash-recovery job in .github/workflows/ci.yml)
#
# TWOPCP_CONSTRAINT=nonneg (or ridge, with TWOPCP_LAMBDA) reruns the whole
# scenario under a constrained solver: the kill/resume diff must still be
# bit-for-bit, and for nonneg the recovered factor CSVs must contain no
# negative entries. CI runs the default pass in the smoke job and a nonneg
# pass in the constraints job.
#
# TWOPCP_ACCELERATOR=tucker reruns it with Phase-0
# acceleration over a low-multilinear-rank input: the resumed run must
# still be bit-for-bit identical AND must report accelerated:true — a
# resume that lands mid-Phase-2 skips Phase 0 and restores its recorded
# outcome from the manifest. CI runs a tucker pass in the accel job.
#
# TWOPCP_FAULT_RATE=0.01 reruns the whole scenario on chaos-degraded
# storage: every twopcp invocation (reference, killed, resumed) reads the
# rate from the environment via the -fault-rate flag default and injects
# seeded transient faults into store and block reads. The script adds a
# retry budget so the faults heal, and the kill/resume diff must STILL be
# bit-for-bit — recovery correctness is independent of storage health.
# CI runs a faulted pass in the chaos job.
#
# TWOPCP_TRACE=1 additionally runs the killed and resumed runs with
# -trace into one shared file: because OpenTrace appends, the resumed
# run must EXTEND the pre-crash event stream (two run.start events, a
# checkpoint.resume marking the seam), and the combined trace must
# validate against the event schema via cmd/tracecheck. CI runs a traced
# pass in the obs job.
#
# TWOPCP_STORE_LOSS=wipe (or garble, truncate) proves the Phase-2 unit
# store is scratch: the reference, killed and resumed runs all keep their
# units in files (-store), and between the kill and the resume the script
# destroys the store directory's contents — every file deleted,
# overwritten with 100 random bytes, or cut to zero length. That is the
# worst a crash could do to writes nobody flushed. The resumed run must
# still exit 0 and match the uninterrupted run bit for bit: the checkpoint
# is the only durable state. CI runs all three in the smoke job.
#
# TWOPCP_CKPT_LOSS=tear-slot (or tear-log) adds to the kill the one thing
# SIGKILL rarely shows and power loss does: a checkpoint write that stopped
# half way. Checkpoints are written in place (docs/crash-recovery.md), so
# after the kill the script cuts in half the Phase-2 slot holding the
# newest checkpoint (tear-slot: the resume must fall back to the slot
# before it and replay further) or the last record of the Phase-1 block
# log (tear-log: the resume must recompute that one block). Either way it
# must exit 0 and match the uninterrupted run bit for bit. CI runs both in
# the smoke job.
#
# TWOPCP_CKPT_LOSS=zero-unsynced is what group commit can lose: after the
# kill the script zeroes the block log from half its length to the end,
# and the newest Phase-2 slot in place when an older one exists, keeping
# both files' sizes — what ext4 can leave after a power loss, where the
# size is durable and the data is not. The resume must recompute the lost
# blocks, fall back to the older slot, exit 0 and match the uninterrupted
# run bit for bit. CI runs it in the smoke job with the two tear modes.
set -euo pipefail

constraint="${TWOPCP_CONSTRAINT:-none}"
lambda="${TWOPCP_LAMBDA:-0}"
accelerator="${TWOPCP_ACCELERATOR:-none}"
trace="${TWOPCP_TRACE:-0}"
store_loss="${TWOPCP_STORE_LOSS:-none}"
case "$store_loss" in none | wipe | garble | truncate) ;; *)
  echo "TWOPCP_STORE_LOSS=$store_loss: want wipe, garble or truncate" >&2
  exit 2
  ;;
esac
ckpt_loss="${TWOPCP_CKPT_LOSS:-none}"
case "$ckpt_loss" in none | tear-slot | tear-log | zero-unsynced) ;; *)
  echo "TWOPCP_CKPT_LOSS=$ckpt_loss: want tear-slot, tear-log or zero-unsynced" >&2
  exit 2
  ;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== building binaries"
go build -o "$work/tensorgen" ./cmd/tensorgen
go build -o "$work/twopcp" ./cmd/twopcp
if [ "$trace" = 1 ]; then
  go build -o "$work/tracecheck" ./cmd/tracecheck
fi

echo "== generating tiled input"
if [ "$accelerator" = none ]; then
  "$work/tensorgen" -kind lowrank -dims 36x36x36 -rank 4 -noise 0.3 \
    -tiles 3x3x3 -seed 11 -out "$work/x.tptl"
else
  # The accelerated pass needs low-multilinear-rank structure, or Phase 0
  # falls back structurally and the scenario stops covering it.
  "$work/tensorgen" -kind lowmlrank -dims 36x36x36 -mlrank 4 -diag \
    -noise 1e-5 -tiles 3x3x3 -seed 11 -out "$work/x.tptl"
fi

# -tol=-1 disables convergence so both runs execute the full iteration
# budget, which is sized to keep Phase 2 running for about a second on a
# 2-vCPU machine — far longer than the kill takes to land after the
# checkpoint it waits for; -checkpoint-steps 1 checkpoints after every
# schedule step so the kill always lands between checkpoints.
args=(-in "$work/x.tptl" -rank 4 -parts 3 -buffer 0.5 -iters 3000 -tol=-1 -seed 11
  -constraint "$constraint" -lambda "$lambda" -accelerator "$accelerator")
fault_rate="${TWOPCP_FAULT_RATE:-0}"
if [ "$fault_rate" != 0 ]; then
  # The binary picks the rate up from $TWOPCP_FAULT_RATE itself; the script
  # only has to grant a retry budget so the injected faults heal.
  args+=(-retry 8)
fi
# Under TWOPCP_STORE_LOSS every run spills its units to files; the
# reference run gets a directory of its own.
ref_store=() store=()
if [ "$store_loss" != none ]; then
  ref_store=(-store "$work/ref-units")
  store=(-store "$work/units")
fi
echo "== constraint: $constraint (lambda $lambda)   accelerator: $accelerator   fault rate: $fault_rate   store loss: $store_loss   checkpoint loss: $ckpt_loss"

echo "== reference (uninterrupted) run"
"$work/twopcp" "${args[@]}" "${ref_store[@]}" -out-prefix "$work/ref" -json "$work/ref.json" >/dev/null

echo "== checkpointed run, SIGKILLed mid-Phase-2"
ckpt="$work/ckpt"
# The killed and resumed runs share one trace file: append semantics must
# preserve the pre-crash event history across the crash.
trace_args=()
if [ "$trace" = 1 ]; then
  trace_args=(-trace "$work/run.jsonl")
fi
"$work/twopcp" "${args[@]}" "${store[@]}" "${trace_args[@]}" -checkpoint "$ckpt" -checkpoint-steps 1 >/dev/null &
pid=$!
# Wait for the second Phase-2 checkpoint — the first one written to slot 1
# — then kill hard at once (no signal handler can run: this is the
# power-loss case). Killing on progress rather than after a fixed sleep
# keeps the kill inside Phase 2 whatever the machine's speed.
for _ in $(seq 1 6000); do
  [ -s "$ckpt/phase2-1.ckpt" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.01
done
if ! kill -0 "$pid" 2>/dev/null; then
  echo "FAIL: run finished before it could be killed; enlarge the workload" >&2
  wait "$pid" || true
  exit 1
fi
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

[ -s "$ckpt/phase2-1.ckpt" ] || { echo "FAIL: no second Phase-2 checkpoint within 60 s" >&2; exit 1; }
grep -q '"stage":"phase2"' "$ckpt/manifest.json" || {
  echo "FAIL: manifest is not mid-Phase-2 after the kill:" >&2
  cat "$ckpt/manifest.json" >&2
  exit 1
}
[ ! -e "$ckpt/result.ckpt" ] || { echo "FAIL: the kill landed after Phase 2 finished (result.ckpt exists)" >&2; exit 1; }
echo "   killed pid $pid with a $(stat -c %s "$ckpt/p1-blocks.log")-byte block log + $(ls "$ckpt" | grep -c '^phase2-[01]\.ckpt$') Phase-2 slots present"

# A record in the block log or a slot is: magic (4) | payload length, u64
# little-endian | crc32 | payload; a slot's payload opens with its u64
# sequence number.
u64_at() { od -An -tu8 -j"$2" -N8 "$1" | tr -d ' '; }
newest_slot() {
  [ -f "$ckpt/phase2-1.ckpt" ] || { echo "FAIL: killed before the second Phase-2 checkpoint; nothing to fall back on" >&2; exit 1; }
  newest="$ckpt/phase2-0.ckpt"
  if [ "$(u64_at "$ckpt/phase2-1.ckpt" 16)" -gt "$(u64_at "$newest" 16)" ]; then
    newest="$ckpt/phase2-1.ckpt"
  fi
}
# zero_from FILE OFFSET zeroes FILE from OFFSET to its end, keeping its size.
zero_from() {
  local size
  size=$(stat -c %s "$1")
  truncate -s "$2" "$1"
  truncate -s "$size" "$1"
}
case "$ckpt_loss" in
  tear-slot)
    echo "== tearing the newest Phase-2 slot"
    newest_slot
    seq=$(u64_at "$newest" 16)
    truncate -s $(($(stat -c %s "$newest") / 2)) "$newest"
    echo "   $(basename "$newest") (checkpoint $seq) cut to $(stat -c %s "$newest") bytes"
    ;;
  zero-unsynced)
    echo "== zeroing what group commit may not have synced"
    log="$ckpt/p1-blocks.log"
    size=$(stat -c %s "$log")
    zero_from "$log" $((size / 2))
    newest_slot
    seq=$(u64_at "$newest" 16)
    zero_from "$newest" 0
    echo "   block log zeroed from byte $((size / 2)) of $size; $(basename "$newest") (checkpoint $seq) zeroed, $(stat -c %s "$newest") bytes kept"
    ;;
  tear-log)
    echo "== tearing the last record of the Phase-1 block log"
    log="$ckpt/p1-blocks.log"
    size=$(stat -c %s "$log")
    off=0 last=0 records=0
    while [ $((off + 16)) -le "$size" ]; do
      next=$((off + 16 + $(u64_at "$log" $((off + 4)))))
      [ "$next" -le "$size" ] || break
      last=$off off=$next records=$((records + 1))
    done
    [ "$records" -gt 0 ] || { echo "FAIL: no whole record in the block log" >&2; exit 1; }
    truncate -s $((last + (off - last) / 2)) "$log"
    echo "   record $records of $records cut in half: log is $(stat -c %s "$log") of $size bytes"
    ;;
esac

if [ "$store_loss" != none ]; then
  echo "== losing the unit store: $store_loss"
  units=("$work/units"/*)
  [ -f "${units[0]}" ] || { echo "FAIL: the killed run left no unit files under -store" >&2; exit 1; }
  for f in "${units[@]}"; do
    case "$store_loss" in
      wipe) rm "$f" ;;
      garble) head -c 100 /dev/urandom >"$f" ;;
      truncate) : >"$f" ;;
    esac
  done
  echo "   ${#units[@]} files: $store_loss"
fi

echo "== resuming"
"$work/twopcp" "${args[@]}" "${store[@]}" "${trace_args[@]}" -resume "$ckpt" -out-prefix "$work/res" -json "$work/res.json" >/dev/null

echo "== diffing factors and fit trace against the uninterrupted run"
for m in 0 1 2; do
  cmp "$work/ref-mode$m.csv" "$work/res-mode$m.csv" || {
    echo "FAIL: factors differ on mode $m" >&2
    exit 1
  }
done
# Wall-clock fields legitimately differ, a resumed run reports fewer
# Phase-1 sweeps (checkpoint-restored blocks recompute nothing), and retry
# counts depend on which ops each attempt happened to issue under fault
# injection; every other field of run_stats (fit, trace, swaps, hit rate,
# store traffic, iteration counts) must match exactly.
if command -v jq >/dev/null 2>&1; then
  strip='del(.run_stats.phase0_ns, .run_stats.phase1_ns, .run_stats.phase2_ns, .run_stats.phase1_sweeps, .run_stats.retries)'
  diff <(jq -S "$strip" "$work/ref.json") \
       <(jq -S "$strip" "$work/res.json") || {
    echo "FAIL: result JSON differs between reference and resumed run" >&2
    exit 1
  }
else
  diff <(grep -v '_ns"\|phase1_sweeps\|"retries"' "$work/ref.json") \
       <(grep -v '_ns"\|phase1_sweeps\|"retries"' "$work/res.json") || {
    echo "FAIL: result JSON differs between reference and resumed run" >&2
    exit 1
  }
fi

if [ "$trace" = 1 ]; then
  echo "== validating the appended trace"
  # The resumed run must have appended to the killed run's trace, not
  # truncated it: two run.start events (pre-crash + resume), exactly one
  # checkpoint.resume marking the seam, one run.done (only the resumed
  # run finished), and every line schema-valid.
  "$work/tracecheck" "$work/run.jsonl" || {
    echo "FAIL: trace does not validate after the crash" >&2
    exit 1
  }
  starts=$(grep -c '"ev":"run.start"' "$work/run.jsonl" || true)
  resumes=$(grep -c '"ev":"checkpoint.resume"' "$work/run.jsonl" || true)
  dones=$(grep -c '"ev":"run.done"' "$work/run.jsonl" || true)
  if [ "$starts" -ne 2 ] || [ "$resumes" -ne 1 ] || [ "$dones" -ne 1 ]; then
    echo "FAIL: trace lifecycle events wrong: run.start=$starts (want 2)," \
         "checkpoint.resume=$resumes (want 1), run.done=$dones (want 1)" >&2
    exit 1
  fi
  echo "   trace OK: $starts run.start, $resumes checkpoint.resume, $dones run.done"
fi

if [ "$accelerator" != none ]; then
  echo "== checking the resumed run still reports the Phase-0 outcome"
  # The resume skips Phase 0 (it already ran before the kill); its recorded
  # outcome must survive in the manifest and surface in the result.
  grep -q '"accelerated": *true' "$work/res.json" || {
    echo "FAIL: resumed run lost the accelerated:true outcome" >&2
    exit 1
  }
fi

if [ "$constraint" = nonneg ]; then
  echo "== checking recovered factors are nonnegative"
  # A negative factor entry prints with a leading minus (at line start or
  # after a comma); exponents like 1e-05 never match these anchors.
  for m in 0 1 2; do
    if grep -q '^-\|,-' "$work/res-mode$m.csv"; then
      echo "FAIL: negative entry in recovered nonneg factor mode $m" >&2
      exit 1
    fi
  done
fi

echo "PASS: resumed run is bit-for-bit identical to the uninterrupted run"
