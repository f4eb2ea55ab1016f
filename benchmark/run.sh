#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--passes N]   every workload, untraced then traced
#   benchmark/run.sh --repeat [--seed N] [--passes N]        the untraced set twice, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one result line
#
# Everything it writes stays inside the checkout: the build in
# $CARGO_TARGET_DIR (default <repo>/target), stores and traces in benchmark/out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

cargo build --release --locked --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/mmlib-benchmark" \
    --out "$root/benchmark/out" --spec "$root/BENCHMARK.json" "$@"
