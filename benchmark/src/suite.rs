//! The whole benchmark in one command: every workload of `BENCHMARK.json`
//! in a fresh process, untraced for the end-to-end metrics and once more
//! traced for the per-layer ones; or, with `--repeat`, the untraced set twice
//! to show that the same commit agrees with itself within its own bounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde_json::{json, Map, Value};

use crate::stats::{iqr_share, median};

pub struct SuiteConfig {
    /// This program; each run is a child process of it.
    pub exe: PathBuf,
    /// `BENCHMARK.json`: the workloads, metrics, bounds and run length.
    pub spec: PathBuf,
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Overrides the spec's `run_seconds`.
    pub seconds: Option<u64>,
    /// Untraced runs per workload; medians are reported.
    pub passes: usize,
    pub repeat: bool,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Bounded {
    name: String,
    unit: String,
    bound: f64,
}

/// The parsed result line of one child run.
struct Run {
    attempted: u64,
    failed: u64,
    correct: bool,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("spec: missing `{key}`"))
}

fn run_child(cfg: &SuiteConfig, workload: &str, seconds: u64, trace: bool) -> Result<Run, String> {
    let output = Command::new(&cfg.exe)
        .args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", cfg.exe.display()))?;
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: run printed nothing"))?;
    let v = Value::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{workload}: no `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?
        .iter()
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: no value"))?;
        metrics.insert(name.clone(), (value, str_field(m, "unit")?));
    }
    Ok(Run {
        attempted: count("attempted")?,
        failed: count("failed")?,
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        metrics,
    })
}

/// Untraced runs of every workload: workload → metric → one value per pass.
/// The second half of the pair is whether every operation of every run
/// succeeded.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn untraced_set(
    cfg: &SuiteConfig,
    workloads: &[String],
    seconds: u64,
    counts: &mut BTreeMap<String, (u64, u64)>,
) -> Result<(Set, bool), String> {
    let mut set = Set::new();
    let mut ok = true;
    for workload in workloads {
        for pass in 0..cfg.passes {
            eprintln!(
                "suite: {workload} untraced pass {}/{}",
                pass + 1,
                cfg.passes
            );
            let run = run_child(cfg, workload, seconds, false)?;
            ok &= run.correct;
            let (attempted, failed) = counts.entry(workload.clone()).or_default();
            *attempted += run.attempted;
            *failed += run.failed;
            for (name, (value, _)) in run.metrics {
                set.entry(workload.clone())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((set, ok))
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (median(values), min, max)
}

/// Runs the suite; `Ok(false)` means it ran but something failed a check.
pub fn run(cfg: &SuiteConfig) -> Result<bool, String> {
    let spec_text = std::fs::read_to_string(&cfg.spec)
        .map_err(|e| format!("read {}: {e}", cfg.spec.display()))?;
    let spec = Value::parse(&spec_text).map_err(|e| format!("parse spec: {e}"))?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("spec: no `{key}`"))
    };
    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| str_field(w, "name"))
        .collect::<Result<_, _>>()?;
    let bounded: Vec<Bounded> = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("spec: metric without bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let seconds = cfg
        .seconds
        .or_else(|| spec.get("run_seconds").and_then(Value::as_u64))
        .ok_or("spec: no `run_seconds`")?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "seed {} · {seconds} s per run · {} untraced pass(es) per workload · nproc {nproc}",
        cfg.seed, cfg.passes
    );

    let mut counts = BTreeMap::new();
    let (first, mut ok) = untraced_set(cfg, &workloads, seconds, &mut counts)?;
    if cfg.repeat {
        let (second, second_ok) = untraced_set(cfg, &workloads, seconds, &mut counts)?;
        ok &= second_ok;
        println!(
            "\n{:<14} {:<30} {:>12} {:>12} {:>8} {:>8}",
            "workload", "metric", "first", "second", "differ", "bound"
        );
        for workload in &workloads {
            for metric in &bounded {
                let a = median(&first[workload][&metric.name]);
                let b = median(&second[workload][&metric.name]);
                let differ = if a == 0.0 { 0.0 } else { (b - a).abs() / a };
                let verdict = if differ > metric.bound { "  FAIL" } else { "" };
                ok &= differ <= metric.bound;
                println!(
                    "{workload:<14} {:<30} {a:>12.4} {b:>12.4} {:>7.2}% {:>7.2}%{verdict}",
                    metric.name,
                    100.0 * differ,
                    100.0 * metric.bound
                );
            }
        }
        return Ok(ok);
    }

    let mut result = Map::new();
    let mut traced: BTreeMap<String, Run> = BTreeMap::new();
    for workload in &workloads {
        eprintln!("suite: {workload} traced pass");
        let run = run_child(cfg, workload, seconds, true)?;
        ok &= run.correct;
        traced.insert(workload.clone(), run);
    }
    for workload in &workloads {
        let (attempted, failed) = counts[workload];
        println!("\n== {workload}: {attempted} operations attempted untraced, {failed} failed");
        let mut end_to_end = Map::new();
        for metric in &bounded {
            let values = &first[workload][&metric.name];
            let (med, min, max) = summary(values);
            println!(
                "{:<36} {med:>14.4} {:<6} min {min:.4} max {max:.4} spread {:.2}% (n={})",
                metric.name,
                metric.unit,
                100.0 * iqr_share(values),
                values.len()
            );
            end_to_end.insert(
                metric.name.clone(),
                json!({"median": med, "min": min, "max": max, "unit": metric.unit.as_str(), "values": values.clone()}),
            );
        }
        println!(
            "{:<36} {:>14.4}",
            "failed_share",
            failed as f64 / attempted.max(1) as f64
        );
        let run = &traced[workload];
        let mut per_layer = Map::new();
        for (name, (value, unit)) in &run.metrics {
            println!("{name:<36} {value:>14.4} {unit}");
            per_layer.insert(
                name.clone(),
                json!({"value": *value, "unit": unit.as_str()}),
            );
        }
        // Tracing overhead: how much slower the traced run's median save
        // plus median recover were than the untraced ones.
        let untraced_ms =
            median(&first[workload]["tts_ms_p50"]) + median(&first[workload]["ttr_ms_p50"]);
        let traced_ms =
            run.metrics["bench.tts_ms_p50_traced"].0 + run.metrics["bench.ttr_ms_p50_traced"].0;
        let overhead = (traced_ms - untraced_ms) / untraced_ms;
        println!(
            "{:<36} {overhead:>14.4} share",
            "bench.trace_overhead_share"
        );
        result.insert(
            workload.clone(),
            json!({
                "attempted": attempted,
                "failed": failed,
                "end_to_end": Value::Object(end_to_end),
                "per_layer": Value::Object(per_layer),
                "bench.trace_overhead_share": overhead
            }),
        );
    }

    // What the net layer costs a large save, two ways: the client-observed
    // gap between the same op sequence remote and local, and the traced
    // self time of the client's round trips.
    let mut net_price = Value::Null;
    if let (Some(local), Some(remote)) = (first.get("ba-local"), first.get("ba-remote")) {
        let gap = median(&remote["tts_ms_p50"]) - median(&local["tts_ms_p50"]);
        let net_self = traced["ba-remote"].metrics["net.self_ms_per_save"].0;
        println!(
            "\nba-remote − ba-local tts_ms_p50: {gap:.4} ms; ba-remote net.self_ms_per_save: {net_self:.4} ms"
        );
        net_price = json!({"tts_gap_ms": gap, "net_self_ms_per_save": net_self});
    }
    let document = json!({
        "seed": cfg.seed,
        "run_seconds": seconds,
        "untraced_passes": cfg.passes,
        "nproc": nproc,
        "workloads": Value::Object(result),
        "net_price_of_a_large_save": net_price
    });
    let path = cfg.out_dir.join("result.json");
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    std::fs::write(&path, document.to_json_string_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}
