//! Every workload end to end on the 72 KB TinyCnn for a fraction of a
//! second: the metrics are all there, nothing fails, and the trace adds up.

use std::path::PathBuf;

use mmlib_benchmark::report::{self, RunResult, END_TO_END, PER_LAYER};
use mmlib_benchmark::workload::{RunConfig, Workload};

/// A directory of the test's own under `benchmark/out`, removed on drop.
struct OutDir(PathBuf);

impl OutDir {
    fn new(test: &str) -> OutDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()));
        OutDir(dir)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(workload: Workload, trace: bool, out: &OutDir) -> RunResult {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        out_dir: out.0.clone(),
        tiny: true,
    };
    report::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .value
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_fail_nothing() {
    let out = OutDir::new("untraced");
    for workload in Workload::ALL {
        let result = run(workload, false, &out);
        assert_eq!(result.failed, 0, "{}", workload.name());
        assert!(result.attempted >= 2, "{}", workload.name());
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, want, "{}", workload.name());
        for metric in &result.metrics {
            assert!(
                metric.value > 0.0,
                "{} {} is {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        assert!(result
            .to_json()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
    // Every store root was removed again.
    let left: Vec<_> = std::fs::read_dir(&out.0).unwrap().collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_the_layers_add_up() {
    let out = OutDir::new("traced");
    for workload in Workload::ALL {
        let result = run(workload, true, &out);
        assert_eq!(result.failed, 0, "{}", workload.name());
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, want, "{}", workload.name());
        assert!(out
            .0
            .join(format!("trace-{}.jsonl", workload.name()))
            .is_file());

        assert!(value(&result, "bench.saves") >= 1.0 && value(&result, "bench.recovers") >= 1.0);
        assert!(value(&result, "core.save_self_ms_p50") > 0.0);
        assert!(value(&result, "store.calls_per_save") >= 1.0);
        assert_eq!(
            value(&result, "bench.unparented_spans"),
            0.0,
            "{}",
            workload.name()
        );
        if workload.remote() {
            assert!(value(&result, "net.self_ms_per_save") > 0.0);
            assert!(value(&result, "net.requests_per_recover") >= 1.0);
            assert!(value(&result, "net.wire_bytes_per_payload_byte") > 0.9);
        } else {
            // The net layer does nothing on a local workload: exactly zero.
            for name in [
                "net.self_ms_per_save",
                "net.self_ms_per_recover",
                "net.rpc_small_ms_p50",
                "net.rpc_bulk_mb_s",
                "net.connect_ms",
                "net.requests_per_save",
                "net.requests_per_recover",
                "net.wire_bytes_per_payload_byte",
                "net.load_shed",
            ] {
                assert_eq!(value(&result, name), 0.0, "{} {name}", workload.name());
            }
        }
        if workload != Workload::FleetRemote {
            // One client: nothing overlaps, so the layers' self times are the
            // operations' wall time.
            let share = value(&result, "bench.layer_sum_share");
            assert!(
                (share - 1.0).abs() < 1e-9,
                "{} layers sum to {share}",
                workload.name()
            );
        }
    }
}

#[test]
fn the_chain_workload_compacts_and_the_provenance_workload_replays() {
    let out = OutDir::new("extras");
    let chain = run(Workload::ChainLocal, true, &out);
    assert_eq!(value(&chain, "bench.saves") % 32.0, 0.0);
    assert!(value(&chain, "lineage.family_blob_fetches") >= 32.0);
    assert!(value(&chain, "lineage.compact_bytes_written") > 0.0);
    assert!(value(&chain, "lineage.ttr_after_compact_ms_p50") > 0.0);
    assert_eq!(value(&chain, "core.changed_layers_per_save"), 1.0);
    let mpa = run(Workload::MpaLocal, true, &out);
    assert!(value(&mpa, "train.replay_ms") > 0.0);
    assert!(value(&mpa, "core.save_pack_ms") > 0.0);
    let pua = run(Workload::PuaLocal, true, &out);
    assert!(value(&pua, "compress.ratio") > 0.0);
}
