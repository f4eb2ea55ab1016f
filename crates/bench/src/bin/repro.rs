//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mmlib-bench --bin repro -- all
//! cargo run --release -p mmlib-bench --bin repro -- fig7 fig10 --runs 3
//! cargo run --release -p mmlib-bench --bin repro -- table2
//! ```
//!
//! Experiments: `table1 table2 table3 fig2 fig4 fig7 fig8 fig9 fig10 fig11
//! fig12 fig13 fig14 fig15 headline` or `all`.
//!
//! Flags: `--scale <f>` (dataset byte-size scale for standard flows,
//! default 1.0 = the paper's sizes), `--dist-scale <f>` (DIST-N flows,
//! default 1/16), `--runs <n>` (repetitions for timed experiments,
//! default 1; the paper uses 5), `--fast` (smaller stand-ins for the most
//! expensive experiments).

use std::time::{Duration, Instant};

use mmlib_bench::{dist_flow_kind, mb, run_flow_runs, standard_flow_config, HarnessConfig};
use mmlib_core::meta::{ApproachKind, ModelRelation};
use mmlib_core::merkle::MerkleTree;
use mmlib_core::{RecoverOptions, SaveRequest, SaveService};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_dist::flow::{FlowConfig, FlowKind};
use mmlib_dist::metrics;
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::hash::sha256;
use mmlib_tensor::{ops, ExecMode, Pcg32};
use mmlib_train::{timed_train, Sgd, SgdConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = HarnessConfig::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => config.scale = take_f64(&mut iter, "--scale"),
            "--dist-scale" => config.dist_scale = take_f64(&mut iter, "--dist-scale"),
            "--runs" => config.runs = take_f64(&mut iter, "--runs") as usize,
            "--fast" => config.fast = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    let all = [
        "table1", "table2", "table3", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "headline",
    ];
    let selected: Vec<&str> = if experiments.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        experiments.iter().map(|s| s.as_str()).collect()
    };

    println!("mmlib paper reproduction harness");
    println!(
        "config: scale={} dist_scale={} runs={} fast={}\n",
        config.scale, config.dist_scale, config.runs, config.fast
    );
    for exp in selected {
        let start = Instant::now();
        match exp {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(),
            "fig2" => fig2(),
            "fig4" => fig4(),
            "fig7" => fig7(&config),
            "fig8" => fig8(),
            "fig9" => fig9(&config),
            "fig10" => fig10_11(&config, false),
            "fig11" => fig10_11(&config, true),
            "fig12" => fig12(&config),
            "fig13" => fig13(&config),
            "fig14" => fig14_15(&config, false),
            "fig15" => fig14_15(&config, true),
            "headline" => headline(&config),
            other => {
                eprintln!("unknown experiment {other}");
                std::process::exit(2);
            }
        }
        println!("[{exp} done in {:.1?}]\n", start.elapsed());
    }
}

fn take_f64(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> f64 {
    iter.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a numeric argument"))
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

fn table1() {
    println!("== Table 1: datasets ==");
    println!("{:<12} {:>8} {:>10} {:>9}", "SHORT NAME", "IMAGES", "SIZE", "USE CASE");
    for id in DatasetId::all() {
        println!(
            "{:<12} {:>8} {:>8.1} MB {:>8}",
            id.short_name(),
            id.paper_images(),
            mb(id.paper_bytes()),
            id.paper_use_case()
        );
    }
}

fn table2() {
    println!("== Table 2: model architectures ==");
    println!(
        "{:<13} {:>12} {:>14} {:>10}  (paper: #params / part. / size)",
        "NAME", "#PARAMS", "PART. UPDATED", "SIZE"
    );
    for arch in ArchId::all() {
        let mut model = Model::new_initialized(arch, 0);
        let total = model.param_count();
        model.set_classifier_only_trainable();
        let partial = model.trainable_param_count();
        let size = model.param_count() * 4; // parameter bytes, as in the paper
        println!(
            "{:<13} {:>12} {:>14} {:>7.1} MB  ({} / {} / —)",
            arch.name(),
            total,
            partial,
            mb(size),
            arch.paper_param_count(),
            arch.paper_partial_param_count(),
        );
        assert_eq!(total, arch.paper_param_count());
        assert_eq!(partial, arch.paper_partial_param_count());
    }
    println!("(counts match the paper exactly; size = 4 bytes x params)");
}

fn table3() {
    println!("== Table 3: evaluation flows ==");
    println!("{:<10} {:>7} {:>8}", "NAME", "#NODES", "#MODELS");
    for kind in FlowKind::all() {
        println!("{:<10} {:>7} {:>8}", kind.name(), kind.nodes(), kind.total_models());
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 — floating-point reduction order
// ---------------------------------------------------------------------------

fn fig2() {
    println!("== Fig. 2: serial vs parallel dot product ==");
    let mut rng = Pcg32::seeded(2);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let a: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let serial = ops::dot_serial(&a, &b);
        let parallel = ops::dot_pairwise(&a, &b);
        println!(
            "n={n:>8}: serial={serial:>13.6} parallel={parallel:>13.6} |diff|={:>9.3e} bit-equal={}",
            (serial - parallel).abs(),
            serial.to_bits() == parallel.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — Merkle tree comparison counts
// ---------------------------------------------------------------------------

fn fig4() {
    println!("== Fig. 4 / §3.2: Merkle-tree comparisons to find 2 changed trailing layers ==");
    println!("{:>7} {:>14} {:>12}  paper", "layers", "merkle cmps", "naive cmps");
    for (n, paper) in [(8usize, 7u64), (64, 13), (128, 15)] {
        let base: Vec<(String, _)> =
            (0..n).map(|i| (format!("layer{i}"), sha256(format!("v{i}").as_bytes()))).collect();
        let mut changed = base.clone();
        for leaf in changed.iter_mut().skip(n - 2) {
            leaf.1 = sha256(format!("changed-{}", leaf.0).as_bytes());
        }
        let ta = MerkleTree::from_leaves(base);
        let tb = MerkleTree::from_leaves(changed);
        let diff = ta.diff(&tb).unwrap();
        let naive = ta.diff_naive(&tb);
        println!("{n:>7} {:>14} {:>12}  {paper}", diff.comparisons, naive.comparisons);
        assert_eq!(diff.comparisons, paper);
    }
    println!("\nreal architectures (classifier-layer-only change):");
    for arch in [ArchId::MobileNetV2, ArchId::ResNet18, ArchId::ResNet152] {
        let mut model = Model::new_initialized(arch, 1);
        let before = MerkleTree::from_model(&model);
        // Touch one classifier parameter.
        let prefix = arch.classifier_prefix();
        model.visit_trainable_mut(&mut |path, param, _| {
            if path.starts_with(prefix) {
                let d = param.data_mut();
                d[0] += 1.0;
            }
        });
        let after = MerkleTree::from_model(&model);
        let diff = before.diff(&after).unwrap();
        println!(
            "  {:<13} {:>4} layers: merkle {:>3} cmps vs naive {:>4}, changed: {:?}",
            arch.name(),
            before.leaf_count(),
            diff.comparisons,
            before.leaf_count(),
            diff.changed
        );
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — storage consumption across use cases and approaches
// ---------------------------------------------------------------------------

fn fig7(config: &HarnessConfig) {
    println!("== Fig. 7: storage per model (MB) across use cases, CF-512, scale={} ==", config.scale);
    let archs = [ArchId::MobileNetV2, ArchId::ResNet152];
    let relations = [ModelRelation::FullyUpdated, ModelRelation::PartiallyUpdated];
    for arch in archs {
        for relation in relations {
            storage_panel(config, arch, relation, DatasetId::CocoFood512);
        }
    }
}

fn storage_panel(config: &HarnessConfig, arch: ArchId, relation: ModelRelation, dataset: DatasetId) {
    storage_panel_for(config, arch, relation, dataset, &ApproachKind::all())
}

fn storage_panel_for(
    config: &HarnessConfig,
    arch: ArchId,
    relation: ModelRelation,
    dataset: DatasetId,
    approaches: &[ApproachKind],
) {
    println!("\n-- {} / {:?} / {} --", arch.name(), relation, dataset.short_name());
    print!("{:<10}", "use case");
    for a in approaches {
        print!(" {:>12}", a.abbrev());
    }
    println!();
    let mut series = Vec::new();
    for &approach in approaches {
        let flow = standard_flow_config(approach, arch, relation, dataset, config.scale, false, 7);
        let result = mmlib_bench::run_flow_tmp(&flow);
        series.push(metrics::storage_series(&result.saves));
    }
    let labels: Vec<String> = series[0].entries().iter().map(|(l, _)| l.clone()).collect();
    for label in &labels {
        if label == "U2" {
            // The paper excludes U2 from the comparison plots (§4.1); print
            // it anyway, marked, for completeness.
            print!("{:<10}", "U2*");
        } else {
            print!("{label:<10}");
        }
        for s in &series {
            print!(" {:>12.3}", s.get(label).unwrap_or(f64::NAN) / 1e6);
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — baseline storage and #params per architecture
// ---------------------------------------------------------------------------

fn fig8() {
    println!("== Fig. 8: baseline storage and parameter count per architecture ==");
    println!("{:<13} {:>12} {:>14}", "architecture", "#params", "BA storage");
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    for arch in ArchId::all() {
        let model = Model::new_initialized(arch, 0);
        let before = svc.storage().bytes_written();
        svc.save(SaveRequest::full(&model)).unwrap();
        let bytes = svc.storage().bytes_written() - before;
        println!("{:<13} {:>12} {:>11.1} MB", arch.name(), model.param_count(), mb(bytes));
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — MPA storage across datasets
// ---------------------------------------------------------------------------

fn fig9(config: &HarnessConfig) {
    println!("== Fig. 9: MPA storage across datasets (MB), scale={} ==", config.scale);
    for arch in [ArchId::MobileNetV2, ArchId::ResNet152] {
        for dataset in [DatasetId::CocoFood512, DatasetId::CocoOutdoor512] {
            storage_panel_for(
                config,
                arch,
                ModelRelation::FullyUpdated,
                dataset,
                &[ApproachKind::Provenance],
            );
        }
    }
    println!(
        "\n(CF-512 is {:.1} MB vs CO-512 {:.1} MB at scale 1; the per-U3 storage difference \
         tracks the dataset-size difference, not the architecture)",
        mb(DatasetId::CocoFood512.paper_bytes()),
        mb(DatasetId::CocoOutdoor512.paper_bytes())
    );
}

// ---------------------------------------------------------------------------
// Figs. 10 & 11 — TTS and TTR across approaches
// ---------------------------------------------------------------------------

fn fig10_11(config: &HarnessConfig, recover: bool) {
    let what = if recover { "Fig. 11: median TTR" } else { "Fig. 10: median TTS" };
    println!("== {what} (ms) across use cases, CO-512, runs={} ==", config.runs);
    let archs = if config.fast {
        vec![ArchId::MobileNetV2]
    } else {
        vec![ArchId::MobileNetV2, ArchId::ResNet152]
    };
    for arch in archs {
        for relation in [ModelRelation::FullyUpdated, ModelRelation::PartiallyUpdated] {
            println!("\n-- {} / {:?} --", arch.name(), relation);
            print!("{:<10}", "use case");
            for a in ApproachKind::all() {
                print!(" {:>12}", a.abbrev());
            }
            if recover {
                print!("  {:>10}", "PUA depth");
            }
            println!();
            let mut tts_series = Vec::new();
            let mut ttr_series = Vec::new();
            let mut pua_depths: Vec<(String, u32)> = Vec::new();
            for approach in ApproachKind::all() {
                let flow = standard_flow_config(
                    approach,
                    arch,
                    relation,
                    DatasetId::CocoOutdoor512,
                    config.scale,
                    recover,
                    11,
                );
                let result = run_flow_runs(&flow, config.runs);
                tts_series.push(metrics::tts_series(&result.saves));
                ttr_series.push(metrics::ttr_series(&result.recovers));
                if approach == ApproachKind::ParamUpdate && recover {
                    pua_depths = result
                        .recovers
                        .iter()
                        .map(|r| (r.use_case.clone(), r.recovered_bases))
                        .collect();
                }
            }
            let series = if recover { &ttr_series } else { &tts_series };
            let labels: Vec<String> = series[0].entries().iter().map(|(l, _)| l.clone()).collect();
            for label in &labels {
                print!("{label:<10}");
                for s in series {
                    print!(" {:>12.1}", s.get(label).unwrap_or(f64::NAN));
                }
                if recover {
                    if let Some((_, d)) = pua_depths.iter().find(|(l, _)| l == label) {
                        print!("  {d:>10}");
                    }
                }
                println!();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 12 — baseline TTR breakdown per architecture
// ---------------------------------------------------------------------------

fn fig12(config: &HarnessConfig) {
    println!("== Fig. 12: baseline TTR breakdown for U3-1-3 per architecture (ms) ==");
    println!(
        "{:<13} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "architecture", "load", "recover", "verify", "(check env)", "total*"
    );
    for arch in ArchId::all() {
        let mut samples: Vec<mmlib_obs::PhaseBreakdown> = Vec::new();
        for run in 0..config.runs.max(1) {
            let dir = tempfile::tempdir().unwrap();
            let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
            let mut model = Model::new_initialized(arch, 20 + run as u64);
            model.set_fully_trainable();
            let mut base = svc.save(SaveRequest::full(&model)).unwrap().id;
            // Three partial-update iterations of U3 (saved as BA snapshots).
            let mut target = base.clone();
            for n in 0..3u64 {
                model.set_classifier_only_trainable();
                perturb_classifier(&mut model, n);
                target = svc.save(SaveRequest::full(&model).base(&base)).unwrap().id;
                base = target.clone();
            }
            let rec = svc.recover_report(&target, RecoverOptions::default()).unwrap();
            samples.push(rec.phases);
        }
        let med = |phase: &str| {
            metrics::median_duration(samples.iter().map(|b| b.get(phase)).collect())
        };
        let (load, recover, verify, check_env) =
            (med("fetch"), med("rebuild"), med("verify"), med("check_env"));
        println!(
            "{:<13} {:>9.1} {:>9.1} {:>9.1} {:>11.1} {:>9.1}",
            arch.name(),
            load.as_secs_f64() * 1e3,
            recover.as_secs_f64() * 1e3,
            verify.as_secs_f64() * 1e3,
            check_env.as_secs_f64() * 1e3,
            (load + recover + verify).as_secs_f64() * 1e3,
        );
    }
    println!("(*total excludes the constant check-env step, as in the paper's figure)");
}

/// Nudges the classifier so each "training" yields a distinct model without
/// paying for a real training run (fig12 measures recovery, not training).
fn perturb_classifier(model: &mut Model, salt: u64) {
    let prefix = model.arch.classifier_prefix();
    model.visit_trainable_mut(&mut |path, param, _| {
        if path.starts_with(prefix) {
            for (i, v) in param.data_mut().iter_mut().enumerate() {
                *v += ((i as u64 ^ salt) % 7) as f32 * 1e-4;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Fig. 13 — deterministic vs non-deterministic training
// ---------------------------------------------------------------------------

fn fig13(config: &HarnessConfig) {
    println!("== Fig. 13: deterministic vs parallel training times (s), CO-512 ==");
    println!(
        "{:<11} {:<15} {:>10} {:>10} {:>10} {:>10}",
        "model", "mode", "data", "forward", "backward", "total"
    );
    let batches = if config.fast { 2 } else { 4 };
    for arch in [ArchId::ResNet18, ArchId::ResNet50, ArchId::ResNet152] {
        for mode in [ExecMode::Deterministic, ExecMode::Parallel] {
            let mut samples = Vec::new();
            for run in 0..config.runs.max(1) {
                let mut model = Model::new_initialized(arch, 30 + run as u64);
                model.set_fully_trainable();
                let loader = DataLoader::new(
                    Dataset::new(DatasetId::CocoOutdoor512, config.dist_scale),
                    LoaderConfig {
                        batch_size: 8,
                        resolution: 32,
                        seed: run as u64,
                        max_images: Some(8 * batches),
                        ..Default::default()
                    },
                );
                let mut sgd = Sgd::new(SgdConfig::default());
                let t = timed_train(&mut model, &loader, &mut sgd, 1, Some(batches), 1, mode);
                samples.push(t);
            }
            let med = |f: &dyn Fn(&mmlib_train::TrainTimings) -> Duration| {
                metrics::median_duration(samples.iter().map(f).collect())
            };
            let (d, f, b) = (med(&|t| t.data_load), med(&|t| t.forward), med(&|t| t.backward));
            println!(
                "{:<11} {:<15} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                arch.name(),
                format!("{mode:?}"),
                d.as_secs_f64(),
                f.as_secs_f64(),
                b.as_secs_f64(),
                (d + f + b).as_secs_f64()
            );
        }
    }
    println!("(1 epoch x {batches} batches of 8 at 32x32; the paper's relative det/non-det slowdown is per-batch constant)");
}

// ---------------------------------------------------------------------------
// Figs. 14 & 15 — DIST-20 TTS / TTR
// ---------------------------------------------------------------------------

fn fig14_15(config: &HarnessConfig, recover: bool) {
    let kind = dist_flow_kind(config.fast);
    let what = if recover { "Fig. 15: median TTR" } else { "Fig. 14: median TTS" };
    println!(
        "== {what} (ms) on {} (fully updated MobileNetV2, CO-512, dist_scale={}) ==",
        kind.name(),
        config.dist_scale
    );
    print!("{:<10}", "use case");
    for a in ApproachKind::all() {
        print!(" {:>12}", a.abbrev());
    }
    println!();
    let mut series = Vec::new();
    for approach in ApproachKind::all() {
        let mut flow: FlowConfig = standard_flow_config(
            approach,
            ArchId::MobileNetV2,
            ModelRelation::FullyUpdated,
            DatasetId::CocoOutdoor512,
            config.dist_scale,
            recover,
            13,
        );
        flow.kind = kind;
        let result = mmlib_bench::run_flow_tmp(&flow);
        series.push(if recover {
            metrics::ttr_series(&result.recovers)
        } else {
            metrics::tts_series(&result.saves)
        });
    }
    let labels: Vec<String> = series[0].entries().iter().map(|(l, _)| l.clone()).collect();
    for label in &labels {
        print!("{label:<10}");
        for s in &series {
            print!(" {:>12.1}", s.get(label).unwrap_or(f64::NAN));
        }
        println!();
    }
    println!("(values are medians over all {} nodes per use-case iteration)", kind.nodes());
}

// ---------------------------------------------------------------------------
// Headline numbers (§4.2/§4.3 summary percentages)
// ---------------------------------------------------------------------------

fn headline(config: &HarnessConfig) {
    println!("== Headline: best-case savings vs the baseline ==");
    // Storage: partially updated ResNet-152 (paper: PUA -95.6%) and fully
    // updated ResNet-152 (paper: MPA -70.0%). The paper's 70% corresponds
    // to the CO-512 dataset (71.6 MB vs the 241.7 MB snapshot).
    let pct = |base: f64, other: f64| (1.0 - other / base) * 100.0;

    let panel = |relation: ModelRelation| -> Vec<f64> {
        ApproachKind::all()
            .into_iter()
            .map(|approach| {
                let flow = standard_flow_config(
                    approach,
                    ArchId::ResNet152,
                    relation,
                    DatasetId::CocoOutdoor512,
                    config.scale,
                    false,
                    17,
                );
                let result = mmlib_bench::run_flow_tmp(&flow);
                let series = metrics::storage_series(&result.saves);
                series.get("U3-1-2").unwrap_or(f64::NAN)
            })
            .collect()
    };

    let partial = panel(ModelRelation::PartiallyUpdated);
    println!(
        "storage, partial ResNet-152 U3: BA {:.1} MB, PUA {:.1} MB -> PUA saves {:.1}% (paper: 95.6%)",
        partial[0] / 1e6,
        partial[1] / 1e6,
        pct(partial[0], partial[1])
    );
    let full = panel(ModelRelation::FullyUpdated);
    println!(
        "storage, full ResNet-152 U3:    BA {:.1} MB, MPA {:.1} MB -> MPA saves {:.1}% (paper: 70.0%)",
        full[0] / 1e6,
        full[2] / 1e6,
        pct(full[0], full[2])
    );
    println!("(TTS percentages depend on machine speed; regenerate via fig10 and compare shapes)");
}
