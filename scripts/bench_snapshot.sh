#!/usr/bin/env bash
# Refreshes the checked-in kernel benchmark snapshot:
#
#   BENCH_kernels.json  - the criterion kernels group (query join tiers,
#                         SPT kernels, cleaning), machine-readable via the
#                         CHL_BENCH_JSON hook in the criterion shim.
#
# Serving numbers live in the perf ledger (ledger/, BENCHMARK.json).
#
# Usage: scripts/bench_snapshot.sh [out_dir]
#
# Numbers are wall-clock means on whatever machine runs this; the snapshot
# exists to make perf regressions reviewable, not to be portable.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-.}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== building (release, target-cpu=native) =="
RUSTFLAGS="-C target-cpu=native" cargo bench -p chl-bench --bench kernels --no-run

echo "== kernels bench =="
KERNELS_JSONL="$WORK/kernels.jsonl"
CHL_BENCH_JSON="$KERNELS_JSONL" RUSTFLAGS="-C target-cpu=native" \
    cargo bench -p chl-bench --bench kernels

{
    printf '{"snapshot":"kernels","host_arch":"%s","benches":[' "$(uname -m)"
    paste -sd, "$KERNELS_JSONL"
    printf ']}\n'
} | tr -d '\n' >"$OUT_DIR/BENCH_kernels.json"
echo >>"$OUT_DIR/BENCH_kernels.json"

echo "== snapshot written =="
ls -l "$OUT_DIR/BENCH_kernels.json"
