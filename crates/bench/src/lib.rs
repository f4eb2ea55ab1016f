//! Shared experiment plumbing for the mmlib benchmark harness.
//!
//! The `repro` binary (`src/bin/repro.rs`) regenerates every table and
//! figure of the paper's evaluation on the helpers here. Performance
//! numbers (end to end and per layer) come from `benchmark/`, not from this
//! crate.

use mmlib_core::meta::{ApproachKind, ModelRelation};
use mmlib_dist::flow::{run_flow, FlowConfig, FlowKind, FlowResult};
use mmlib_model::ArchId;

/// Global knobs for a harness invocation.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Byte-size scale for datasets in the standard-flow experiments.
    /// 1.0 preserves the paper's dataset:model size ratios exactly.
    pub scale: f64,
    /// Byte-size scale for the DIST-N experiments (402 provenance saves at
    /// full scale would write tens of GB; the paper's *trends* are
    /// scale-free).
    pub dist_scale: f64,
    /// Runs per timed experiment (medians are taken across runs × nodes).
    pub runs: usize,
    /// Fast mode: smaller architectures / flows where the full version is
    /// expensive, for smoke-testing the harness itself.
    pub fast: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { scale: 1.0, dist_scale: 1.0 / 16.0, runs: 1, fast: false }
    }
}

/// Builds the standard-flow configuration used by Figs. 7 and 9–11.
pub fn standard_flow_config(
    approach: ApproachKind,
    arch: ArchId,
    relation: ModelRelation,
    u3_dataset: mmlib_data::DatasetId,
    scale: f64,
    recover_all: bool,
    seed: u64,
) -> FlowConfig {
    let mut config = FlowConfig::standard(approach, arch, relation);
    config.u3_dataset = u3_dataset;
    config.dataset_scale = scale;
    config.recover_all = recover_all;
    config.seed = seed;
    // Training resolution does not enter any storage or per-byte cost; use
    // the smallest resolution each stride pyramid supports (GoogLeNet's
    // pooling chain needs 32).
    config.train.resolution = if arch == ArchId::GoogLeNet { 32 } else { 16 };
    config
}

/// Runs a flow in a fresh temp directory (dropped afterwards, so repeated
/// experiments do not accumulate tens of GB on disk).
pub fn run_flow_tmp(config: &FlowConfig) -> FlowResult {
    let dir = tempfile::tempdir().expect("temp dir for flow storage");
    run_flow(config, dir.path())
}

/// Runs a flow `runs` times (varying the seed) and concatenates results for
/// cross-run medians, as the paper does across its five repetitions.
pub fn run_flow_runs(config: &FlowConfig, runs: usize) -> FlowResult {
    let results: Vec<FlowResult> = (0..runs)
        .map(|r| {
            let mut c = config.clone();
            c.seed = config.seed ^ ((r as u64) << 48);
            run_flow_tmp(&c)
        })
        .collect();
    mmlib_dist::metrics::concat_results(&results)
}

/// Formats bytes as decimal megabytes (the paper's unit).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Formats a flow kind name for DIST experiments respecting fast mode.
pub fn dist_flow_kind(fast: bool) -> FlowKind {
    if fast {
        FlowKind::Dist5
    } else {
        FlowKind::Dist20
    }
}
