#!/usr/bin/env bash
# Kernel parity smoke: internal/mat's AVX2 kernels (the fiber primitives
# Axpy, OuterAdd, FibersMatMulAdd and FoldAdd, and HadamardVec) and its
# pure-Go loops must produce the same bits through the whole pipeline:
# the MTTKRP, the Grams, Phase 2's products, the SPD right-solve of every
# factor update (its triangular sweeps are OuterAdd calls) and ‖X‖ (eight
# FoldAdd lanes), which enters every fit.
# Build cmd/twopcp twice — default, and with -tags purego, which leaves
# only the Go loops — run both on two tiled files at ranks 8, 13 and 16
# (one eight-column kernel block; one, a four-column block and a scalar
# tail column; two eight-column blocks — the golden fixtures' rank 3
# reaches no vector code at all), synchronously and with prefetch, and
# compare the factor CSVs byte for byte and the result JSON (fit, fit
# trace, swaps, store traffic) field for field. The first file runs at
# -parts 2 and -parts 4 (slabs of 4 and 16 blocks: Phase 2's two kernel
# calls per update, the slab·Γ product and the slabᵀ·A one, over fibers
# of 32 to 256 values); its blocks have I_0 longest, so Phase 1's sweeps
# take the mode-0 pass and the S pass. The second runs at -parts 2 on
# blocks with I_0 shortest, whose sweeps fold from contractions on modes
# 1 and 2 (tensor.Sweep's OuterAdd panels). The purego build also
# encodes and decodes every float payload (tiles, store units) with
# internal/mat's per-value loops instead of the byte view, so the same
# comparison covers the two float codecs.
#
# The comparison would be vacuous if both binaries ran the same kernels,
# so each run's "kernels    :" summary line is checked: the default build
# must say avx2 and the tagged one generic. On a machine without AVX2 the
# script therefore fails — there is nothing to compare there.
#
# Usage: scripts/kernel_parity.sh   (from the repo root; CI runs it in the
# smoke job of .github/workflows/ci.yml)
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== building binaries (default, -tags purego)"
go build -o "$work/tensorgen" ./cmd/tensorgen
go build -o "$work/twopcp-avx2" ./cmd/twopcp
go build -tags purego -o "$work/twopcp-generic" ./cmd/twopcp

echo "== generating tiled inputs"
# x: blocks of 20x18x17 at -parts 2: 306 fibers a block, which fills
# neither the S pass's last fiber group nor its last four-fiber batch, and
# runs of 18 fibers in the mode-0 pass, two over the last batch of four.
# -parts 4 re-tiles them into 10x9x(9|8): runs of 9, one over.
# y: blocks of 17x18x20 at -parts 2: contractions on mode 1 (18 fibers
# per panel, two over the last batch of four) and mode 2 (20, none over),
# in panels of 17 rows.
"$work/tensorgen" -kind lowrank -dims 40x36x34 -rank 5 -noise 0.3 \
  -tiles 2x2x2 -seed 20 -out "$work/x.tptl"
"$work/tensorgen" -kind lowrank -dims 34x36x40 -rank 5 -noise 0.3 \
  -tiles 2x2x2 -seed 21 -out "$work/y.tptl"

# Wall-clock fields differ by construction; with prefetching so does
# bytes_read, which counts prefetches issued and never used.
json_diff() { # <a.json> <b.json> <jq paths to drop> <grep pattern to drop>
  if command -v jq >/dev/null 2>&1; then
    diff <(jq -S "del($3)" "$1") <(jq -S "del($3)" "$2")
  else
    diff <(grep -v "$4" "$1") <(grep -v "$4" "$2")
  fi
}

for input in x:2 x:4 y:2; do
  in="${input%%:*}" parts="${input##*:}"
  for rank in 8 13 16; do
    for mode in sync prefetch; do
      args=(-in "$work/$in.tptl" -rank "$rank" -parts "$parts" -buffer 0.5 -iters 30 -tol=-1 -seed 20)
      volatile='.run_stats.phase0_ns, .run_stats.phase1_ns, .run_stats.phase2_ns'
      volatile_re='_ns"'
      if [ "$mode" = prefetch ]; then
        args+=(-prefetch 2 -io-workers 2)
        volatile="$volatile, .run_stats.bytes_read"
        volatile_re="$volatile_re"'\|"bytes_read"'
      fi
      run="$in-p$parts-r$rank-$mode"
      echo "== $in, parts $parts, rank $rank, $mode"
      for k in avx2 generic; do
        out="$work/$k-$run"
        "$work/twopcp-$k" "${args[@]}" -store "$out-units" -out-prefix "$out" \
          -json "$out.json" 2>"$out.log"
        grep -q "^kernels    : $k\$" "$out.log" || {
          echo "FAIL: the $k binary did not run the $k kernels:" >&2
          grep '^kernels' "$out.log" >&2 || echo "(no kernels line)" >&2
          exit 1
        }
      done
      for m in 0 1 2; do
        cmp "$work/avx2-$run-mode$m.csv" "$work/generic-$run-mode$m.csv" || {
          echo "FAIL: $run: mode-$m factors differ between avx2 and generic kernels" >&2
          exit 1
        }
      done
      json_diff "$work/avx2-$run.json" "$work/generic-$run.json" "$volatile" "$volatile_re" || {
        echo "FAIL: $run: result JSON differs between avx2 and generic kernels" >&2
        exit 1
      }
    done
  done
done

echo "PASS: avx2 and generic kernels agree bit for bit (x at parts 2 and 4, y at parts 2, ranks 8, 13 and 16, sync and prefetch)"
