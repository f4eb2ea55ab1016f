#!/usr/bin/env bash
# Regenerates every paper table/figure sequentially, one output file per
# experiment (results/<exp>.txt). Timing experiments should run on an
# otherwise idle machine.
set -u
export MALLOC_MMAP_THRESHOLD_=1073741824 MALLOC_TRIM_THRESHOLD_=1073741824
cd "$(dirname "$0")/.."
mkdir -p results
BIN=target/release/repro
[ -x "$BIN" ] || cargo build --release -p mmlib-bench

failed=()
for exp in "$@"; do
    echo "=== running $exp ==="
    "$BIN" "$exp" ${REPRO_FLAGS:-} > "results/$exp.txt" 2>&1
    status=$?
    echo "=== $exp exit=$status ==="
    [ "$status" -eq 0 ] || failed+=("$exp")
done
if [ "${#failed[@]}" -gt 0 ]; then
    echo "run_experiments.sh: FAILED: ${failed[*]} (see results/<exp>.txt)" >&2
    exit 1
fi
