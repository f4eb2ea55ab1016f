#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, clippy must be
# silent. `cargo build` and `cargo test` at the root only cover the facade
# package (the root Cargo.toml is itself a package), so both steps are
# --workspace: a root-only build would leave target/release/mmlib stale.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each stage prints its wall time (bash SECONDS) as it finishes.
stage_start=$SECONDS
lap() { # lap STAGE
    echo "check.sh: $1 took $((SECONDS - stage_start)) s"
    stage_start=$SECONDS
}

cargo build --release --workspace
lap build
cargo test --workspace -q
lap test

# Static-analysis gate, run before the expensive stress/bench gates so a
# violation fails fast. Every invariant has one owner (DESIGN.md "Static
# analysis"):
#   rustc       F1 unsafe-code forbid ([workspace.lints.rust]); opcode
#               dispatch (`respond` matches every Opcode, no wildcard) and
#               unique wire bytes (explicit #[repr(u8)] discriminants)
#   clippy      P1 panic-freedom, D1 determinism hygiene (clippy.toml),
#               C1 truncating casts (deny line in each lib.rs); checked
#               indexing and arithmetic in the wire decoder (protocol.rs),
#               the dataset container decoder (container.rs), the
#               delta_v1 update decoder (codec.rs, rle.rs), the tensor
#               decoder (ser.rs) and the document decoder (schema.rs);
#               a discarded StagedWrite (#[must_use])
#   types       a connection's place in the `max_connections` budget given
#               back by `Drop for Admission`; a staged write committed at
#               most once (`commit_staged` takes it by value)
#   tests       opcode coverage (opcode_coverage.rs walks Opcode::ALL), the
#               metric taxonomy (tests/metric_taxonomy.rs), the clippy
#               owners still biting (tests/toolchain.rs); L1, one lock at a
#               time: the one-lock check in the parking_lot shim panics on
#               a nested lock in every debug test
#   review      H1, no lock-held I/O: the one lock left in net is the client
#               pool's, held only while a caller takes (or waits for) a
#               slot; every socket read and write runs on the thread that
#               holds the connection, under no lock
#
# The clippy rules' scopes live in the files they guard, so pin them here:
# the exact deny line in each listed lib.rs (and in the decoders), the
# workspace lint table in every manifest (shims too: clippy.toml is found
# from any member, so a crate outside the table would have D1 on by
# default), and a cap on `#[expect]` suppressions (13 P1 + 1 D1 + 2 C1; it
# only goes down).
P1='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]'
D1='#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]'
C1='#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]'
DECODE='#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]'
pin() { # pin RULE LINE FILE...
    local rule=$1 line=$2 f
    shift 2
    for f in "$@"; do
        if ! grep -qxF -- "$line" "$f"; then
            echo "check.sh: $f lost its $rule line: $line" >&2
            exit 1
        fi
    done
}
libs() { local c; for c in "$@"; do echo "crates/$c/src/lib.rs"; done; }
pin P1 "$P1" $(libs core net store tensor dist obs lineage)
pin D1 "$D1" $(libs tensor train model core lineage dist)
pin C1 "$C1" $(libs net store)
pin decoder "$DECODE" crates/net/src/protocol.rs crates/data/src/container.rs \
    crates/compress/src/codec.rs crates/compress/src/rle.rs crates/tensor/src/ser.rs \
    crates/store/src/schema.rs
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
# `gc::read_store` and `DocStore::get` are the one place each), the
# hand-written admission releases (`Drop for Admission` is the one) and the
# lock that only serialized directory listings, and so is the lock analyser
# with its pragmas and their budget file (the parking_lot shim's one-lock
# check replaced it; their names are bracketed so that a search of the tree
# for them finds nothing here), and so are the server's hand-parsed lineage
# walk and the CLI's second lineage renderer (`LineageGraph::read` in
# mmlib-store builds every lineage node, on both sides of the wire), and so
# is the second document per save with the rules only it needed: its batch
# item, its fsck issue classes and compaction's rewrite of it (a model's
# model-info document is its lineage node), and so are the write paths
# beside the staged commit: the store views, the unstaged atomic write and
# the wrapper writes an MPA save made before its batch (`ModelStorage` is
# the one call surface, `commit_staged` the one rename, and the wrapper
# builders return batch items), and so are the server's event loop, shard
# pools, admission budgets and the client's reply demultiplexer (a
# connection is served on one blocking thread at each end, and
# `max_connections` is the one budget), and so are the documents a save
# wrote beside its model-info document and the reads and walks only they
# needed: the environment document, the three wrapper documents with
# their kind, loader and the reference walk between them (a model-info
# document holds its environment and its provenance record inline), and
# the count-only upload mode that only the server's event loop used, and so
# is the last of those documents, the layer-hash document, with its kind and
# the model-info field that named it (a model-info document holds its layer
# hashes, and `SaveService::load_layer_hashes` folds them). Fail, naming the
# file, if one returns.
for gone in ChainPolicy with_policy SimNetwork network_time run_flow_with_transport \
    recover_flow_family FaultyBackend artifacts_of walk_wrapper_closure entry_layer_hashes \
    lineage_index UnparsableDoc DocIdMismatch finish_inflight release_pending init_lock \
    'mmlib-lin[t]' 'lint-budge[t]' 'fn lineage_record(' 'fn lineage_ancestry(' node_line \
    lineage_item OrphanLineage DanglingLineageParent rebase_record 'kinds::LINEAGE' \
    DocsView FilesView atomic_write save_loader_wrapper save_optimizer_wrapper \
    save_train_service_wrapper io_loop ShardConfig WireConfig AdmissionConfig fnv1a \
    reader_loop route_reply per_conn_inflight SHUTDOWN_DRAIN_GRACE environment_doc train_doc \
    environment_item 'kinds::ENVIRONMENT' 'kinds::WRAPPER' load_wrapper count_only \
    layer_hash_doc 'kinds::LAYER_HASHES'; do
    if hits=$(grep -rl -- "$gone" crates/*/src src examples tests); then
        echo "check.sh: deleted name '$gone' reappeared in:" $hits >&2
        exit 1
    fi
done
# The registry server reads documents only through `mmlib_store::schema`:
# no document kind or body field is spelled out in mmlib-net's sources.
if hits=$(grep -rlE '"(base_model|model_info|lineage)"' crates/net/src); then
    echo "check.sh: mmlib-net parses documents by hand again (use mmlib_store::schema):" $hits >&2
    exit 1
fi
# One walk, one plan, one reply decode: the chain-walk loop (`walk_chain`
# and its `next = ...recovery_parent()` step) and `links_to_rebuild` are
# defined in mmlib-store's schema.rs only, which both the in-process
# recovery and the registry's `ChainGet` call; the `ChainGet` reply is
# decoded in net/src/protocol.rs only, under the decoder deny line pinned
# above. Fail, naming the file, if a second definition appears.
only_in() { # only_in FILE REGEX
    local hits
    if hits=$(grep -rlE -- "$2" crates src examples tests | grep -vxF "$1"); then
        echo "check.sh: '$2' belongs in $1 only, and is also in:" $hits >&2
        exit 1
    fi
}
only_in crates/store/src/schema.rs 'fn links_to_rebuild\('
only_in crates/store/src/schema.rs 'fn walk_chain\(|next = .*recovery_parent\(\)'
only_in crates/net/src/protocol.rs 'fn decode_chain_reply\('
# Recovery builds a model around its decoded tensors (`Model::from_state`)
# and never runs an initializer. Fail, naming the file, if library code in
# core or lineage calls `new_initialized`; its tests and doc comments may.
for f in $(grep -rl -- new_initialized crates/core/src crates/lineage/src || true); do
    if awk '/^#\[cfg\(test\)\]/ { exit } /new_initialized/ && !/^[[:space:]]*\/\// { hit = 1 }
            END { exit !hit }' "$f"; then
        echo "check.sh: $f calls new_initialized outside its tests; recovery must not run an initializer" >&2
        exit 1
    fi
done
lap pins

cargo clippy --workspace --all-targets -- -D warnings
lap clippy

# Fault matrix: BA/PUA/MPA x 32 seeded fault plans, pinned to a fixed seed
# base so every run exercises the identical fault schedule. Failures print
# the offending plan; reproduce any cell with the same seed base.
FAULT_SEED_BASE=1024151
if ! MMLIB_FAULT_SEED_BASE="$FAULT_SEED_BASE" cargo test --test fault_matrix -q; then
    echo "check.sh: fault matrix FAILED at seed base $FAULT_SEED_BASE" >&2
    echo "reproduce: MMLIB_FAULT_SEED_BASE=$FAULT_SEED_BASE cargo test --test fault_matrix" >&2
    exit 1
fi
lap "fault matrix"

# Wire-protocol stress gate: 512 concurrent client threads taking turns on
# one RemoteStore pool of 8 connections, each served on its own server
# thread, asserting zero lost/misrouted responses and exact byte-ledger
# equality between client and server counters. Release mode keeps the bounded fast run under a few
# seconds; plain `cargo test` runs the same test at a modest default scale.
if ! MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress -q; then
    echo "check.sh: wire-protocol stress FAILED at 512 clients" >&2
    echo "reproduce: MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress" >&2
    exit 1
fi
lap stress

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
lap smoke

echo "check.sh: all gates passed in $SECONDS s"
