#!/usr/bin/env bash
# No fused multiply-add in internal/mat: the vector kernels agree with the
# Go loops bit for bit only because every product is rounded before it is
# added (VMULPD, then VADDPD). One VFMADD* would round once and change the
# low bits of everything downstream — on ranks the rank-3 goldens never
# reach. The differential tests catch that by its effect; this check reads
# the instructions themselves: build cmd/twopcp, disassemble it, and fail
# on any vfm* instruction inside a twopcp/internal/mat symbol. (Elsewhere
# in the binary the Go runtime's math.archExp uses FMA, and may.)
#
# Needs binutils objdump — `go tool objdump` does not decode VEX — and
# skips with a message where there is none, or where the build has no
# assembly to check.
#
# Usage: scripts/no_fma.sh   (from the repo root; CI runs it in the smoke
# job of .github/workflows/ci.yml)
set -euo pipefail

if ! command -v objdump >/dev/null; then
  echo "SKIP: no objdump on PATH"
  exit 0
fi
if [ "$(go env GOARCH)" != amd64 ]; then
  echo "SKIP: GOARCH=$(go env GOARCH) builds no assembly kernels"
  exit 0
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
go build -o "$work/twopcp" ./cmd/twopcp

objdump -d --no-show-raw-insn "$work/twopcp" | awk '
  /^[0-9a-f]+ <.*>:$/ { inmat = index($2, "<twopcp/internal/mat.") == 1; sym = $2; next }
  !inmat { next }
  $2 ~ /^vfm/ { fma++; print "FMA in " sym " " $0 }
  $2 == "vmulpd" { mul++ }
  $2 == "vaddpd" { add++ }
  END {
    printf "internal/mat: %d vmulpd, %d vaddpd, %d fused\n", mul, add, fma
    if (mul == 0 || add == 0) { print "FAIL: found no vector kernels to check"; exit 1 }
    if (fma > 0) { print "FAIL: fused multiply-add in internal/mat"; exit 1 }
    print "PASS: internal/mat multiplies, then adds"
  }'
