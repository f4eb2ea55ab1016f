//! Turns what a run measured into the named metrics of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use crate::layers::{self, Metrics};
use crate::stats::{median, tail};
use crate::trace::{self, Adopts, LayerSum, Span, Tracer};
use crate::workload::{self, Measured, RunConfig, Samples, Workload};

/// `(name, unit)` of every end-to-end metric, in reporting order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tts_ms_p50", "ms"),
    ("ttr_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("stored_bytes_per_model_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in reporting order. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("tensor.sha256_mb_s", "MB/s"),
    ("tensor.hash_par_mb_s", "MB/s"),
    ("tensor.ser_mb_s", "MB/s"),
    ("tensor.de_mb_s", "MB/s"),
    ("model.init_ms", "ms"),
    ("model.load_state_ms", "ms"),
    ("core.save_self_ms_p50", "ms"),
    ("core.recover_self_ms_p50", "ms"),
    ("core.save_hash_ms", "ms"),
    ("core.save_diff_ms", "ms"),
    ("core.save_serialize_ms", "ms"),
    ("core.save_pack_ms", "ms"),
    ("core.save_write_ms", "ms"),
    ("core.recover_fetch_ms", "ms"),
    ("core.recover_rebuild_ms", "ms"),
    ("core.recover_check_env_ms", "ms"),
    ("core.recover_verify_ms", "ms"),
    ("core.merkle_build_ms", "ms"),
    ("core.hash_cache_warm_ms", "ms"),
    ("core.changed_layers_per_save", "count"),
    ("store.busy_ms_per_save", "ms"),
    ("store.busy_ms_per_recover", "ms"),
    ("store.commit_batch_ms_p50", "ms"),
    ("store.get_file_mb_s", "MB/s"),
    ("store.calls_per_save", "count"),
    ("store.calls_per_recover", "count"),
    ("store.sync_ops_per_save", "count"),
    ("store.bytes_written_per_save", "B"),
    ("store.blob_bytes_read_per_recover", "B"),
    ("net.self_ms_per_save", "ms"),
    ("net.self_ms_per_recover", "ms"),
    ("net.rpc_small_ms_p50", "ms"),
    ("net.rpc_bulk_mb_s", "MB/s"),
    ("net.connect_ms", "ms"),
    ("net.requests_per_save", "count"),
    ("net.requests_per_recover", "count"),
    ("net.wire_bytes_per_payload_byte", "ratio"),
    ("net.load_shed", "count"),
    ("net.frame_encode_mb_s", "MB/s"),
    ("net.frame_decode_mb_s", "MB/s"),
    ("net.frame_small_us", "us"),
    ("lineage.ancestry_ms_p50", "ms"),
    ("lineage.recover_family_ms_per_model", "ms"),
    ("lineage.family_blob_fetches", "count"),
    ("lineage.compact_s", "s"),
    ("lineage.compact_bytes_written", "B"),
    ("lineage.ttr_after_compact_ms_p50", "ms"),
    ("train.replay_ms", "ms"),
    ("compress.encode_mb_s", "MB/s"),
    ("compress.decode_mb_s", "MB/s"),
    ("compress.ratio", "ratio"),
    ("bench.tts_ms_p50_traced", "ms"),
    ("bench.ttr_ms_p50_traced", "ms"),
    ("bench.tts_ms_tail", "ms"),
    ("bench.tts_tail_pct", "%"),
    ("bench.ttr_ms_tail", "ms"),
    ("bench.ttr_tail_pct", "%"),
    ("bench.saves", "count"),
    ("bench.recovers", "count"),
    ("bench.unattributed_share", "share"),
    ("bench.layer_sum_share", "share"),
    ("bench.unparented_spans", "count"),
    ("bench.store_on_tmpfs", "bool"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON: every digit Rust prints, and 0 for what JSON cannot say.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(measured: &Measured) -> Vec<Metric> {
    let total = &measured.total;
    let values = [
        median(&measured.setup_s),
        median(&total.save_ms),
        median(&total.recover_ms),
        measured.ops_per_s,
        ratio(
            measured.bytes_written as f64,
            total.model_bytes_saved as f64,
        ),
        measured.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Sums over every operation of one kind in the trace.
#[derive(Default)]
struct OpSums {
    ops: f64,
    wall_ns: f64,
    core_self_ms: Vec<f64>,
    /// Per layer, summed over the operations' span trees.
    layers: BTreeMap<&'static str, LayerSum>,
}

impl OpSums {
    fn add(&mut self, root: &Span, by_layer: &BTreeMap<&'static str, LayerSum>) {
        self.ops += 1.0;
        self.wall_ns += root.duration_ns() as f64;
        for (layer, sum) in by_layer {
            if *layer == "core" {
                self.core_self_ms.push(sum.self_ns as f64 / 1e6);
            }
            let total = self.layers.entry(layer).or_default();
            total.self_ns += sum.self_ns;
            total.spans += sum.spans;
            total.bytes += sum.bytes;
        }
    }

    fn layer(&self, layer: &str) -> LayerSum {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Σ of all layers' self times, to show they add up to `wall_ns`.
    fn layers_ns(&self) -> f64 {
        self.layers.values().map(|sum| sum.self_ns as f64).sum()
    }

    fn per_op(&self, total: u64) -> f64 {
        ratio(total as f64, self.ops)
    }
}

/// `(blob bytes, nanoseconds)` → MB/s.
fn throughput(spans: &[Span], name: &str) -> f64 {
    let (bytes, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(b, t), s| (b + s.bytes, t + s.duration_ns()));
    ratio(bytes as f64 / 1e6, ns as f64 / 1e9)
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ms)
        .collect()
}

fn mean_phase_ms(phase_s: &BTreeMap<&'static str, f64>, phase: &str, ops: usize) -> f64 {
    ratio(1e3 * phase_s.get(phase).copied().unwrap_or(0.0), ops as f64)
}

/// Whether (and how often) the client-side span `caller` can be what made
/// the registry issue the store call `callee`: a backend call reaches the
/// server as the same call, a batch as one write per item, and an ancestry
/// query as a scan of the document store.
fn caused_over_the_wire(caller: &Span, callee: &Span) -> Option<Adopts> {
    let method = callee.name.strip_prefix("store.")?;
    match caller.name {
        "net.commit_batch" => matches!(method, "insert_doc" | "put_file").then_some(Adopts::Many),
        "lineage.query" => matches!(method, "doc_ids" | "get_doc").then_some(Adopts::Many),
        name => (name.strip_prefix("net.") == Some(method)).then_some(Adopts::One),
    }
}

/// Everything the spans of the timed phase say about the layers.
fn from_spans(cfg: &RunConfig, spans: &mut [Span], out: &mut Metrics) {
    let unparented = if cfg.workload.remote() {
        trace::adopt_by_containment(
            spans,
            |s| s.name.starts_with("store."),
            caused_over_the_wire,
        )
    } else {
        0
    };
    let self_ns = trace::self_times_ns(spans);
    let children = trace::children_of(spans);
    let (mut save, mut recover) = (OpSums::default(), OpSums::default());
    for root in spans.iter() {
        let sums = match root.name {
            "core.save" => &mut save,
            "core.recover" => &mut recover,
            _ => continue,
        };
        sums.add(root, &trace::tree_by_layer(root, &children, &self_ns));
    }

    out.insert("core.save_self_ms_p50", median(&save.core_self_ms));
    out.insert("core.recover_self_ms_p50", median(&recover.core_self_ms));
    out.insert(
        "store.busy_ms_per_save",
        save.per_op(save.layer("store").self_ns) / 1e6,
    );
    out.insert(
        "store.busy_ms_per_recover",
        recover.per_op(recover.layer("store").self_ns) / 1e6,
    );
    out.insert(
        "store.calls_per_save",
        save.per_op(save.layer("store").spans),
    );
    out.insert(
        "store.calls_per_recover",
        recover.per_op(recover.layer("store").spans),
    );
    out.insert(
        "store.blob_bytes_read_per_recover",
        recover.per_op(recover.layer("store").bytes),
    );
    out.insert(
        "store.commit_batch_ms_p50",
        median(&durations_ms(spans, "store.commit_batch")),
    );
    out.insert("store.get_file_mb_s", throughput(spans, "store.get_file"));
    out.insert(
        "net.self_ms_per_save",
        save.per_op(save.layer("net").self_ns) / 1e6,
    );
    out.insert(
        "net.self_ms_per_recover",
        recover.per_op(recover.layer("net").self_ns) / 1e6,
    );
    // One request reaches the server's store as one call, so the store spans
    // adopted under an operation are the requests it cost.
    let requests = |op: &OpSums| {
        if cfg.workload.remote() {
            op.per_op(op.layer("store").spans)
        } else {
            0.0
        }
    };
    out.insert("net.requests_per_save", requests(&save));
    out.insert("net.requests_per_recover", requests(&recover));
    out.insert(
        "net.rpc_small_ms_p50",
        median(&durations_ms(spans, "net.get_doc")),
    );
    out.insert("net.rpc_bulk_mb_s", throughput(spans, "net.get_file"));
    out.insert(
        "bench.layer_sum_share",
        ratio(
            save.layers_ns() + recover.layers_ns(),
            save.wall_ns + recover.wall_ns,
        ),
    );
    out.insert("bench.unparented_spans", unparented as f64);
}

/// Everything the clients' own samples and the store's counters say.
fn from_samples(measured: &Measured, out: &mut Metrics) {
    let total: &Samples = &measured.total;
    let (saves, recovers) = (total.save_ms.len(), total.recover_ms.len());
    for (metric, phase) in [
        ("core.save_hash_ms", "hash"),
        ("core.save_diff_ms", "diff"),
        ("core.save_serialize_ms", "serialize"),
        ("core.save_pack_ms", "pack"),
        ("core.save_write_ms", "write"),
    ] {
        out.insert(metric, mean_phase_ms(&total.save_phase_s, phase, saves));
    }
    for (metric, phase) in [
        ("core.recover_fetch_ms", "fetch"),
        ("core.recover_rebuild_ms", "rebuild"),
        ("core.recover_check_env_ms", "check_env"),
        ("core.recover_verify_ms", "verify"),
    ] {
        out.insert(
            metric,
            mean_phase_ms(&total.recover_phase_s, phase, recovers),
        );
    }
    out.insert(
        "core.changed_layers_per_save",
        ratio(total.changed_layers as f64, saves as f64),
    );
    out.insert(
        "store.sync_ops_per_save",
        ratio(measured.sync_ops as f64, saves as f64),
    );
    out.insert(
        "store.bytes_written_per_save",
        ratio(measured.bytes_written as f64, saves as f64),
    );
    out.insert(
        "net.wire_bytes_per_payload_byte",
        ratio(
            measured.wire_bytes as f64,
            (measured.bytes_written + measured.bytes_read) as f64,
        ),
    );
    out.insert("net.load_shed", measured.load_shed as f64);
    if !total.query_ms.is_empty() {
        out.insert("lineage.ancestry_ms_p50", median(&total.query_ms));
    }
    let (tts_pct, tts_tail) = tail(&total.save_ms);
    let (ttr_pct, ttr_tail) = tail(&total.recover_ms);
    out.insert("bench.tts_ms_p50_traced", median(&total.save_ms));
    out.insert("bench.ttr_ms_p50_traced", median(&total.recover_ms));
    out.insert("bench.tts_ms_tail", tts_tail);
    out.insert("bench.tts_tail_pct", tts_pct);
    out.insert("bench.ttr_ms_tail", ttr_tail);
    out.insert("bench.ttr_tail_pct", ttr_pct);
    out.insert("bench.saves", saves as f64);
    out.insert("bench.recovers", recovers as f64);
    let op_wall_s =
        (total.save_ms.iter().sum::<f64>() + total.recover_ms.iter().sum::<f64>()) / 1e3;
    out.insert(
        "bench.unattributed_share",
        ratio(total.unattributed_s, op_wall_s),
    );
}

/// Whether `path` lives on a tmpfs mount, by the longest matching mount point.
fn on_tmpfs(path: &Path) -> bool {
    let Ok(path) = path.canonicalize() else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then_some((mount.len(), fstype == "tmpfs"))
        })
        .max()
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// Runs one workload once and derives its metrics: the end-to-end ones when
/// untraced, the per-layer ones when traced.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let tracer = cfg.trace.then(|| Arc::new(Tracer::new()));
    let measured = workload::measure(cfg, tracer.as_ref())?;
    let (attempted, failed) = (measured.total.attempted, measured.total.failed);
    let Some(tracer) = tracer else {
        return Ok(RunResult {
            attempted,
            failed,
            metrics: end_to_end(&measured),
        });
    };

    let mut spans = tracer.take();
    let mut values = Metrics::new();
    from_spans(cfg, &mut spans, &mut values);
    from_samples(&measured, &mut values);
    values.insert(
        "bench.store_on_tmpfs",
        f64::from(u8::from(on_tmpfs(measured.ready.env.root()))),
    );
    layers::direct(cfg, &measured.ready, &mut values);
    layers::connect(&measured.ready, &mut values)?;
    layers::ancestry(&measured.ready, &mut values)?;
    if cfg.workload == Workload::ChainLocal {
        layers::chain(&measured.ready, &tracer, &mut spans, &mut values)?;
    }
    // The direct calls ran through the timed backends too; their spans are
    // part of the trace file but of none of the per-operation sums above.
    spans.extend(tracer.take());
    let path = cfg
        .out_dir
        .join(format!("trace-{}.jsonl", cfg.workload.name()));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.remove(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from PER_LAYER: {:?}",
        values.keys()
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
        spec.get(list)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_reports() {
        let spec = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let own_workloads: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn the_result_line_keeps_every_digit_and_never_prints_nan() {
        let result = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "tts_ms_p50",
                    value: 1.2034567891234,
                    unit: "ms",
                },
                Metric {
                    name: "ops_per_s",
                    value: f64::NAN,
                    unit: "1/s",
                },
            ],
        };
        let line = result.to_json();
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(3));
        let metrics = parsed.get("metrics").unwrap();
        let value = |name: &str| {
            metrics
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Value::as_f64)
        };
        assert_eq!(value("tts_ms_p50"), Some(1.2034567891234));
        assert_eq!(value("ops_per_s"), Some(0.0));
    }

    #[test]
    fn a_wire_call_causes_the_same_store_call_once_and_a_batch_any_number_of_writes() {
        let span = |name| Span {
            id: 1,
            parent: 0,
            name,
            thread: 1,
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
        };
        let caused = |caller, callee| caused_over_the_wire(&span(caller), &span(callee));
        assert_eq!(caused("net.get_doc", "store.get_doc"), Some(Adopts::One));
        assert_eq!(caused("net.get_doc", "store.get_file"), None);
        assert_eq!(
            caused("net.commit_batch", "store.put_file"),
            Some(Adopts::Many)
        );
        assert_eq!(caused("net.commit_batch", "store.get_doc"), None);
        assert_eq!(caused("lineage.query", "store.doc_ids"), Some(Adopts::Many));
        assert_eq!(caused("core.save", "store.get_doc"), None);
    }
}
