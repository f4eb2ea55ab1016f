#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, clippy must be
# silent. `cargo test -q` at the root only covers the facade package (the
# root Cargo.toml is itself a package), so the test step is --workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q

# Static-analysis gate, run before the expensive stress/bench gates so a
# violation fails fast. Each of the nine rules has one owner (DESIGN.md
# "Static analysis"):
#   rustc       F1 unsafe-code forbid         [workspace.lints.rust]
#   clippy      P1 panic-freedom, D1 determinism hygiene (clippy.toml),
#               C1 truncating casts           deny line in each lib.rs
#   mmlib-lint  X1 protocol / M1 metric cross-checks, L1 lock order, H1
#               lock-held I/O, G1 guard balance (lint-pairs.txt); its
#               pragmas are bounded by the ratchet in lint-budget.txt
#
# The toolchain rules' scopes live in the crates they guard, so pin them
# here: the exact deny line in each listed lib.rs, the workspace lint table
# in every manifest (shims too: clippy.toml is found from any member, so a
# crate outside the table would have D1 on by default), and a cap on
# `#[expect]` suppressions (13 P1 + 1 D1 + 2 C1; it only goes down).
P1='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]'
D1='#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]'
C1='#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]'
pin() { # pin RULE LINE CRATE...
    local rule=$1 line=$2 c
    shift 2
    for c in "$@"; do
        if ! grep -qxF -- "$line" "crates/$c/src/lib.rs"; then
            echo "check.sh: crates/$c/src/lib.rs lost its $rule line: $line" >&2
            exit 1
        fi
    done
}
pin P1 "$P1" core net store tensor dist obs lineage
pin D1 "$D1" tensor train model core lineage dist
pin C1 "$C1" net store
for m in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml; do
    if ! grep -A1 -xF '[lints]' "$m" | grep -qxF 'workspace = true'; then
        echo "check.sh: $m lost '[lints] workspace = true' (F1 and the D1 default)" >&2
        exit 1
    fi
done
EXPECT_CAP=16
expects=$(grep -rE '^\s*#\[expect\(' --include='*.rs' crates/*/src src | wc -l)
if [ "$expects" -gt "$EXPECT_CAP" ]; then
    echo "check.sh: $expects #[expect] suppressions under crates/*/src, cap is $EXPECT_CAP — fix the site instead" >&2
    exit 1
fi
# Deleted, not parked: save-time chain policies and the modelled network are
# gone (chain depth is bounded by `mmlib lineage compact`; mmlib-net is the
# one network layer), and so are the second ownership rule, the extra store
# scans and the physical document parse (`ModelInfoDoc::references`,
# `gc::read_store` and `DocStore::get` are the one place each). Fail, naming
# the file, if one of their names returns.
for gone in ChainPolicy with_policy SimNetwork network_time run_flow_with_transport \
    recover_flow_family FaultyBackend artifacts_of walk_wrapper_closure entry_layer_hashes \
    lineage_index UnparsableDoc DocIdMismatch; do
    if hits=$(grep -rl -- "$gone" crates/*/src src examples tests); then
        echo "check.sh: deleted name '$gone' reappeared in:" $hits >&2
        exit 1
    fi
done

cargo clippy --workspace --all-targets -- -D warnings
if ! cargo run --release --quiet -p mmlib-lint -- --workspace; then
    echo "check.sh: mmlib-lint FAILED (see violations above)" >&2
    echo "reproduce one rule: cargo run --release -q -p mmlib-lint -- --workspace --rule <ID>" >&2
    echo "rules and pragma syntax: DESIGN.md 'Static analysis'" >&2
    exit 1
fi

# Fault matrix: BA/PUA/MPA x 32 seeded fault plans, pinned to a fixed seed
# base so every run exercises the identical fault schedule. Failures print
# the offending plan; reproduce any cell with the same seed base.
FAULT_SEED_BASE=1024151
if ! MMLIB_FAULT_SEED_BASE="$FAULT_SEED_BASE" cargo test --test fault_matrix -q; then
    echo "check.sh: fault matrix FAILED at seed base $FAULT_SEED_BASE" >&2
    echo "reproduce: MMLIB_FAULT_SEED_BASE=$FAULT_SEED_BASE cargo test --test fault_matrix" >&2
    exit 1
fi

# Wire-protocol stress gate: 512 concurrent clients multiplexed over one
# pipelined RemoteStore pool against the sharded v2 server, asserting zero
# lost/misrouted responses and exact byte-ledger equality between client
# and server counters. Release mode keeps the bounded fast run under a few
# seconds; plain `cargo test` runs the same test at a modest default scale.
if ! MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress -q; then
    echo "check.sh: wire-protocol stress FAILED at 512 clients" >&2
    echo "reproduce: MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress" >&2
    exit 1
fi

# Benchmark gate: benchmark/ is a workspace of its own (the root manifest
# never sees it), so build it here and run its unit and smoke tests — every
# workload once on TinyCnn, each recovery checked byte-exact — and a surface
# change that breaks the one harness fails tier-1 instead of the pipeline.
# It builds into ./target like benchmark/run.sh. The traced smoke test is
# skipped: its fleet-remote assertion (two concurrent clients, zero
# unparented server spans) does not hold on a small shared machine, and
# benchmark/ is frozen; the untraced and chain/provenance smoke tests run.
if ! cargo test --release --locked --offline -q \
    --manifest-path benchmark/Cargo.toml --target-dir target \
    -- --skip traced_runs_report_every_per_layer_metric_and_the_layers_add_up; then
    echo "check.sh: benchmark/ build or smoke test FAILED" >&2
    echo "reproduce: cargo test --release --locked --offline --manifest-path benchmark/Cargo.toml --target-dir target" >&2
    exit 1
fi

echo "check.sh: all gates passed"
