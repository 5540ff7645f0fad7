#!/usr/bin/env bash
# Chaos smoke: run the same decomposition on clean storage and on storage
# with seeded transient faults injected into both phases (store reads and
# writes in Phase 2, block reads in Phase 1), and verify the retry layer
# makes faults INVISIBLE: factors and the full result JSON (minus retry
# counts and wall clock) must be bit-for-bit identical at every fault
# rate. Then verify the permanent-fault path: a poison block must surface
# as a quarantine error with the distinct exit code 4, leave a resumable
# checkpoint behind, and the resumed run (fault fixed) must again match
# the clean run exactly.
#
# Usage: scripts/chaos.sh   (from the repo root; CI runs it as the chaos
# job in .github/workflows/ci.yml)
#
# TWOPCP_FAULT_RATES overrides the swept rates (default "0.001 0.01").
# TWOPCP_PREFETCH=<depth> runs every run with -prefetch <depth>
# -io-workers 2, so prefetches on the I/O pool go through the retry layer
# too (write-backs are inline either way). In that mode
# run_stats.bytes_read is left out of the comparison — at depth > 0 it
# counts prefetches that were issued and never used, which depends on
# timing (Options.PrefetchDepth documents it).
set -euo pipefail

rates="${TWOPCP_FAULT_RATES:-0.001 0.01}"
prefetch="${TWOPCP_PREFETCH:-0}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== building binaries"
go build -o "$work/tensorgen" ./cmd/tensorgen
go build -o "$work/twopcp" ./cmd/twopcp
go build -o "$work/tracecheck" ./cmd/tracecheck

echo "== generating tiled input"
"$work/tensorgen" -kind lowrank -dims 30x30x30 -rank 3 -noise 0.3 \
  -tiles 3x3x3 -seed 11 -out "$work/x.tptl"

# -tol=-1 pins the iteration count so every run does identical work; the
# retry budget is deliberately generous — the contract under test is
# "healed faults change nothing", not "the budget is tight".
args=(-in "$work/x.tptl" -rank 3 -parts 3 -buffer 0.5 -iters 40 -tol=-1
  -seed 11 -retry 8)
# What differs between two runs by construction, as jq paths and as a grep
# pattern for boxes without jq.
volatile='.run_stats.phase0_ns, .run_stats.phase1_ns, .run_stats.phase2_ns, .run_stats.retries'
volatile_re='_ns"\|"retries"'
if [ "$prefetch" -gt 0 ]; then
  args+=(-prefetch "$prefetch" -io-workers 2)
  volatile="$volatile, .run_stats.bytes_read"
  volatile_re="$volatile_re"'\|"bytes_read"'
fi

echo "== reference run on clean storage"
"$work/twopcp" "${args[@]}" -out-prefix "$work/ref" -json "$work/ref.json" >/dev/null

# Wall-clock fields and the retry counter differ by construction; every
# other run_stats field (fit, swaps, hit rate, store traffic — which
# counts only SUCCESSFUL ops) must match the clean run exactly.
json_diff() {
  if command -v jq >/dev/null 2>&1; then
    diff <(jq -S "del($volatile)" "$1") <(jq -S "del($volatile)" "$2")
  else
    diff <(grep -v "$volatile_re" "$1") <(grep -v "$volatile_re" "$2")
  fi
}

for rate in $rates; do
  echo "== faulted run at rate $rate"
  "$work/twopcp" "${args[@]}" -fault-rate "$rate" -fault-write-rate "$rate" -fault-seed 99 \
    -trace "$work/run-$rate.jsonl" \
    -out-prefix "$work/f$rate" -json "$work/f$rate.json" >/dev/null
  for m in 0 1 2; do
    cmp "$work/ref-mode$m.csv" "$work/f$rate-mode$m.csv" || {
      echo "FAIL: factors differ on mode $m at fault rate $rate" >&2
      exit 1
    }
  done
  json_diff "$work/ref.json" "$work/f$rate.json" || {
    echo "FAIL: result JSON differs at fault rate $rate" >&2
    exit 1
  }
  echo "== reconciling trace retry events with run_stats at rate $rate"
  "$work/tracecheck" -run-stats "$work/f$rate.json" "$work/run-$rate.jsonl" || {
    echo "FAIL: trace does not validate or retries do not reconcile at rate $rate" >&2
    exit 1
  }
done

# The highest swept rate must actually exercise the retry path, or the
# whole sweep silently degenerates into comparing clean runs.
high="${rates##* }"
retries=$(sed -n 's/.*"retries": *\([0-9][0-9]*\).*/\1/p' "$work/f$high.json" | head -1)
if [ -z "$retries" ] || [ "$retries" -eq 0 ]; then
  echo "FAIL: 0 retries at fault rate $high — injection not exercised" >&2
  exit 1
fi
echo "   rate $high absorbed $retries transient-fault retries, bit-identical output"

echo "== poison block: quarantine, exit code 4, resumable checkpoint"
ckpt="$work/ckpt"
rc=0
"$work/twopcp" "${args[@]}" -fault-poison-blocks 5 -checkpoint "$ckpt" \
  >/dev/null 2>"$work/poison.err" || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "FAIL: poisoned run exit code = $rc, want 4 (quarantine)" >&2
  cat "$work/poison.err" >&2
  exit 1
fi
grep -qi quarantine "$work/poison.err" || {
  echo "FAIL: no quarantine notice on stderr:" >&2
  cat "$work/poison.err" >&2
  exit 1
}
[ -d "$ckpt" ] || { echo "FAIL: no checkpoint directory after quarantine" >&2; exit 1; }

echo "== resuming after the poison block is fixed"
"$work/twopcp" "${args[@]}" -resume "$ckpt" \
  -out-prefix "$work/res" -json "$work/res.json" >/dev/null
for m in 0 1 2; do
  cmp "$work/ref-mode$m.csv" "$work/res-mode$m.csv" || {
    echo "FAIL: factors differ on mode $m after quarantine resume" >&2
    exit 1
  }
done
# A resumed run's sweep count covers only the blocks it recomputed.
volatile="$volatile, .run_stats.phase1_sweeps"
volatile_re="$volatile_re"'\|phase1_sweeps'
json_diff "$work/ref.json" "$work/res.json" || {
  echo "FAIL: result JSON differs after quarantine resume" >&2
  exit 1
}

echo "PASS: read and write faults at rates [$rates] healed bit-identically (prefetch depth $prefetch); quarantine resumed bit-identically"
