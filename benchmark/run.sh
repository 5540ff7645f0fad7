#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs the benchmark
# with the arguments given. Run from anywhere; everything it writes
# (build cache, binaries, scratch) stays inside the checkout, under
# .bench_build and .bench_work at its root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# A build cache of the checkout's own: nothing is read from or written to
# the user's, and a second build in the same checkout is a no-op.
export GOCACHE="$build/gocache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

# The program under test is built from the checkout's source. Build
# output goes to standard error so the result stays the last line of
# standard output.
(cd "$root" && go build -o "$build/twopcpd" ./cmd/twopcpd) >&2
(cd "$here" && go build -o "$build/twopcp-benchmark" .) >&2

cd "$root"
exec "$build/twopcp-benchmark" -bin "$build" -workdir "$root/.bench_work" "$@"
