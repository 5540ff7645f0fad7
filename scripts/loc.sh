#!/usr/bin/env bash
# Code size, counted one way: lines of non-test Go outside benchmark/, lines
# of assembly, and lines of non-test Go in benchmark/ (its own module).
# CHANGES.md's before/after figures and ROADMAP's code-size line come from
# this script. It counts the files git tracks or would track (ignored build
# output is not code), so run it from any checkout.
#
# Usage: scripts/loc.sh   (from the repo root; CI runs it in the lint job of
# .github/workflows/ci.yml)
set -euo pipefail

count() {
  git ls-files --cached --others --exclude-standard -- "$@" |
    grep -v '_test\.go$' |
    while read -r f; do [ -f "$f" ] && cat "$f"; done |
    wc -l
}

echo "go (non-test, outside benchmark/): $(count '*.go' ':!benchmark/')"
echo "assembly:                          $(count '*.s')"
echo "go (non-test, benchmark/):         $(count 'benchmark/*.go')"
