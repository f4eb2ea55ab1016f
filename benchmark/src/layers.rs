//! Direct timed calls into each layer's public functions, on the workload's
//! own model, after the timed phase of a traced run. They say what a layer
//! costs on its own; the spans say how much of an operation it was.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mmlib_compress::codec::{decode_update, encode_update};
use mmlib_core::hash_cache::HashCache;
use mmlib_core::{MerkleTree, RecoverOptions};
use mmlib_lineage::Lineage;
use mmlib_model::Model;
use mmlib_net::protocol::{chunk_frames, encode_frame_v, try_decode_frame};
use mmlib_net::{Frame, Opcode, RemoteStore, WireVersion, CHUNK_SIZE};
use mmlib_tensor::hash::sha256;
use mmlib_tensor::hash_par::hash_tensors;
use mmlib_tensor::ser::{state_from_bytes, state_to_bytes};
use mmlib_tensor::Tensor;
use mmlib_train::TrainService;

use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workload::{Ready, RunConfig, Training, Workload};

/// Depth bound the chain workload compacts its 32-deep chain to.
const COMPACT_DEPTH: usize = 8;
/// How many of the chain's deepest versions are recovered as one family.
/// Their 32 shared ancestors are each rebuilt once; all 32 as targets would
/// add 20 s to the run for the same information.
const FAMILY: usize = 8;
/// Tip recoveries timed after compaction.
const RECOVERS_AFTER_COMPACT: usize = 8;

/// Seconds per call of `f`: the median of five rounds, each repeating `f`
/// until 30 ms have passed, after one untimed call.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    const ROUND: Duration = Duration::from_millis(30);
    f();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u32;
            loop {
                f();
                calls += 1;
                if start.elapsed() >= ROUND {
                    break start.elapsed().as_secs_f64() / f64::from(calls);
                }
            }
        })
        .collect();
    median(&rounds)
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// tensor · model · core · net-framing · compress · train: functions that
/// need no store.
pub fn direct(cfg: &RunConfig, ready: &Ready, out: &mut Metrics) {
    let model = &ready.model;
    let entries = model.state_entries();
    let named: Vec<(&str, &Tensor)> = entries
        .iter()
        .map(|(p, t, _, _)| (p.as_str(), *t))
        .collect();
    let tensors: Vec<&Tensor> = named.iter().map(|(_, t)| *t).collect();
    let nbytes = model.state_nbytes() as usize;
    let blob = state_to_bytes(named.iter().copied());

    out.insert(
        "tensor.sha256_mb_s",
        mb_per_s(
            blob.len(),
            per_call_s(|| {
                black_box(sha256(black_box(&blob)));
            }),
        ),
    );
    out.insert(
        "tensor.hash_par_mb_s",
        mb_per_s(
            nbytes,
            per_call_s(|| {
                black_box(hash_tensors(black_box(&tensors)));
            }),
        ),
    );
    out.insert(
        "tensor.ser_mb_s",
        mb_per_s(
            nbytes,
            per_call_s(|| {
                black_box(state_to_bytes(black_box(&named).iter().copied()));
            }),
        ),
    );
    out.insert(
        "tensor.de_mb_s",
        mb_per_s(
            blob.len(),
            per_call_s(|| {
                black_box(state_from_bytes(black_box(&blob)).expect("own serialization decodes"));
            }),
        ),
    );

    out.insert(
        "model.init_ms",
        1e3 * per_call_s(|| {
            black_box(Model::new_initialized(model.arch, black_box(cfg.seed)));
        }),
    );
    let state = model.state_dict();
    let mut target = model.duplicate();
    out.insert(
        "model.load_state_ms",
        1e3 * per_call_s(|| {
            target
                .load_state_dict(black_box(&state))
                .expect("own state dict loads");
        }),
    );

    out.insert(
        "core.merkle_build_ms",
        1e3 * per_call_s(|| {
            black_box(MerkleTree::from_model(black_box(model)));
        }),
    );
    let cache = HashCache::new();
    let recorder = ready.clients[0].svc.recorder();
    out.insert(
        "core.hash_cache_warm_ms",
        1e3 * per_call_s(|| {
            black_box(cache.tree_for_model(black_box(model), recorder));
        }),
    );

    // One 64 KiB blob chunk and one header-only request, v2 framing.
    let chunk = chunk_frames(1, &Bytes::from(vec![0xa5u8; CHUNK_SIZE])).remove(0);
    let wire = encode_frame_v(&chunk, WireVersion::V2).expect("a chunk frame encodes");
    out.insert(
        "net.frame_encode_mb_s",
        mb_per_s(
            wire.len(),
            per_call_s(|| {
                black_box(encode_frame_v(black_box(&chunk), WireVersion::V2).expect("encodes"));
            }),
        ),
    );
    out.insert(
        "net.frame_decode_mb_s",
        mb_per_s(
            wire.len(),
            per_call_s(|| {
                black_box(try_decode_frame(black_box(&wire), WireVersion::V2).expect("decodes"));
            }),
        ),
    );
    let small =
        Frame::new(Opcode::DocGet, serde_json::json!({"id": "0123abcd-1f"})).with_request_id(7);
    out.insert(
        "net.frame_small_us",
        1e6 * per_call_s(|| {
            let wire = encode_frame_v(black_box(&small), WireVersion::V2).expect("encodes");
            black_box(try_decode_frame(&wire, WireVersion::V2).expect("decodes"));
        }),
    );

    if cfg.workload == Workload::PuaLocal {
        // The classifier delta a compressed update of this version would carry.
        let prefix = model.arch.classifier_prefix();
        let changed: Vec<(&str, &Tensor)> = named
            .iter()
            .copied()
            .filter(|(path, _)| path.starts_with(prefix))
            .collect();
        let base_entries = ready.u1.state_entries();
        let base: BTreeMap<&str, &Tensor> = base_entries
            .iter()
            .map(|(p, t, _, _)| (p.as_str(), *t))
            .collect();
        let lookup = |name: &str| base.get(name).copied();
        let encoded = encode_update(&changed, &lookup);
        let raw = encoded.raw_bytes as usize;
        out.insert("compress.ratio", encoded.ratio());
        out.insert(
            "compress.encode_mb_s",
            mb_per_s(
                raw,
                per_call_s(|| {
                    black_box(encode_update(black_box(&changed), &lookup));
                }),
            ),
        );
        out.insert(
            "compress.decode_mb_s",
            mb_per_s(
                raw,
                per_call_s(|| {
                    black_box(decode_update(black_box(&encoded.bytes), &lookup).expect("decodes"));
                }),
            ),
        );
    }

    if cfg.workload == Workload::MpaLocal {
        let training = Training::new(ready.last_training_seed);
        let mut replayed = model.duplicate();
        replayed.set_fully_trainable();
        out.insert(
            "train.replay_ms",
            1e3 * per_call_s(|| {
                training.service().train(black_box(&mut replayed));
            }),
        );
    }
}

/// lineage: an ancestry query on the last saved version, through whichever
/// way the workload reaches its store.
pub fn ancestry(ready: &Ready, out: &mut Metrics) -> Result<(), String> {
    let Some(tip) = ready.last_chain.last() else {
        return Ok(());
    };
    let mut failed = None;
    let seconds = match &ready.env.remote {
        Some(remote) => {
            let remote: &RemoteStore = remote;
            per_call_s(|| {
                if let Err(e) = remote.lineage_chain(&tip.to_string()) {
                    failed = Some(e.to_string());
                }
            })
        }
        None => {
            let lineage = Lineage::new(&ready.clients[0].svc);
            per_call_s(|| {
                if let Err(e) = lineage.ancestry(tip) {
                    failed = Some(e.to_string());
                }
            })
        }
    };
    out.insert("lineage.ancestry_ms_p50", 1e3 * seconds);
    failed.map_or(Ok(()), |e| Err(format!("ancestry of {tip}: {e}")))
}

/// lineage on the deep chain: recover its deepest versions as one family,
/// compact the chain to depth 8, recover the tip again. Needs the tracer to
/// count blob fetches.
pub fn chain(
    ready: &Ready,
    tracer: &Arc<Tracer>,
    trace: &mut Vec<Span>,
    out: &mut Metrics,
) -> Result<(), String> {
    let svc = &ready.clients[0].svc;
    let lineage = Lineage::new(svc);
    let tip = ready
        .last_chain
        .last()
        .ok_or("the chain workload saved no chain")?;
    let ids = &ready.last_chain[ready.last_chain.len().saturating_sub(FAMILY)..];

    trace.extend(tracer.take());
    let start = Instant::now();
    let family = lineage
        .recover_family(ids, true)
        .map_err(|e| format!("recover_family: {e}"))?;
    let family_s = start.elapsed().as_secs_f64();
    let family_spans = tracer.take();
    let fetches = family_spans
        .iter()
        .filter(|s| s.name == "store.get_file")
        .count();
    trace.extend(family_spans);
    if !family
        .models
        .last()
        .is_some_and(|(_, m)| m.models_equal(&ready.model))
    {
        return Err("recover_family returned a tip that is not what was saved".into());
    }
    out.insert(
        "lineage.recover_family_ms_per_model",
        1e3 * family_s / ids.len() as f64,
    );
    out.insert("lineage.family_blob_fetches", fetches as f64);

    let start = Instant::now();
    let report = lineage
        .compact(tip, COMPACT_DEPTH)
        .map_err(|e| format!("compact: {e}"))?;
    out.insert("lineage.compact_s", start.elapsed().as_secs_f64());
    out.insert("lineage.compact_bytes_written", report.bytes_written as f64);

    let mut ttr_ms = Vec::with_capacity(RECOVERS_AFTER_COMPACT);
    for _ in 0..RECOVERS_AFTER_COMPACT {
        let start = Instant::now();
        let recovered = svc
            .recover_report(tip, RecoverOptions::default())
            .map_err(|e| format!("recover after compact: {e}"))?;
        ttr_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !recovered.model.models_equal(&ready.model) {
            return Err("recovery after compaction is not what was saved".into());
        }
    }
    out.insert("lineage.ttr_after_compact_ms_p50", median(&ttr_ms));
    Ok(())
}

/// net: one more connect (handshake included) to the workload's registry.
pub fn connect(ready: &Ready, out: &mut Metrics) -> Result<(), String> {
    let Some(server) = &ready.env.server else {
        return Ok(());
    };
    let mut failed = None;
    let seconds = per_call_s(|| {
        if let Err(e) = RemoteStore::builder(server.addr()).build() {
            failed = Some(e.to_string());
        }
    });
    out.insert("net.connect_ms", 1e3 * seconds);
    failed.map_or(Ok(()), |e| Err(format!("connect: {e}")))
}
