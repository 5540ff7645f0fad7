#!/usr/bin/env bash
# Where the linker puts the benchmark's layout-sensitive code. The input
# generator's main.fillKruskal is 15-30 % slower at an address that is 32
# mod 64 (docs/performance.md, "A layout trap in the set-up"), which moves
# the refine workloads' setup_s with no change to the source. This builds
# the benchmark binary the way benchmark/run.sh does (same GOFLAGS,
# GOTOOLCHAIN and GOWORK) into a temporary directory outside the checkout,
# prints the address mod 64 of main.fillKruskal and of every
# twopcp/internal/refine function, and warns when fillKruskal sits at 32.
# Run it on a change and on its parent and compare the two listings.
#
# Usage: scripts/layout.sh   (from anywhere; CI runs it in the lint job of
# .github/workflows/ci.yml). It reports and always exits 0.
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
bin="$tmp/twopcp-benchmark"
if ! (cd "$root/benchmark" && go build -o "$bin" .); then
  echo "layout: building the benchmark failed; nothing to report"
  exit 0
fi

go tool nm "$bin" |
  while read -r addr kind name; do
    case "$kind:$name" in
      T:main.fillKruskal | T:twopcp/internal/refine.*) ;;
      *) continue ;;
    esac
    mod=$((16#$addr % 64))
    printf '%2d mod 64  %s\n' "$mod" "$name"
    if [ "$name" = main.fillKruskal ] && [ "$mod" -eq 32 ]; then
      echo "WARNING: main.fillKruskal is at 32 mod 64: the refine workloads' setup_s will read 15-30 % high (docs/performance.md, \"A layout trap in the set-up\")"
    fi
  done
exit 0
