//! Evaluation-flow execution (paper §4.1 and §4.6).
//!
//! Two entry points run the same flow body: [`run_flow`], where server and
//! nodes open one shared storage directory (the paper's MongoDB + shared
//! file system), and [`run_flow_tcp`], where they reach it through a
//! loopback registry server. All reported times are measured; nothing is
//! modelled.

use std::time::Duration;

use mmlib_core::meta::{apply_trainability, ApproachKind, ModelRelation, SavedModelId};
use mmlib_core::{RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib_obs::PhaseBreakdown;
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

/// Which evaluation flow to run (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// 1 node, 4 U3 iterations per phase → 10 models.
    Standard,
    /// 5 nodes, 10 U3 iterations per phase → 102 models.
    Dist5,
    /// 10 nodes → 202 models.
    Dist10,
    /// 20 nodes → 402 models.
    Dist20,
}

impl FlowKind {
    /// All flows in Table 3 order.
    pub fn all() -> [FlowKind; 4] {
        [FlowKind::Standard, FlowKind::Dist5, FlowKind::Dist10, FlowKind::Dist20]
    }

    /// The paper's flow name.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Standard => "STANDARD",
            FlowKind::Dist5 => "DIST-5",
            FlowKind::Dist10 => "DIST-10",
            FlowKind::Dist20 => "DIST-20",
        }
    }

    /// Node count (Table 3).
    pub fn nodes(self) -> usize {
        match self {
            FlowKind::Standard => 1,
            FlowKind::Dist5 => 5,
            FlowKind::Dist10 => 10,
            FlowKind::Dist20 => 20,
        }
    }

    /// U3 iterations per phase (4 for standard, 10 for distributed flows).
    pub fn u3_iterations(self) -> usize {
        match self {
            FlowKind::Standard => 4,
            _ => 10,
        }
    }

    /// Total models one run saves: `2 + nodes × 2 × iterations` (Table 3).
    pub fn total_models(self) -> usize {
        2 + self.nodes() * 2 * self.u3_iterations()
    }
}

/// Training-cost knobs.
///
/// The paper trains U2 for ten epochs on ImageNet-val and each U3 for five
/// epochs on a COCO subset, on a GPU cluster; it also *simulates* MPA
/// training replays with "two epochs with two batches" (§4.4) to keep the
/// evaluation feasible. These knobs are that same feasibility lever: the
/// defaults keep a flow run laptop-sized while preserving every structural
/// property (per-model training, per-chain replay cost, deterministic
/// replays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Images per batch.
    pub batch_size: usize,
    /// Decode resolution.
    pub resolution: usize,
    /// Epochs per U3 training.
    pub epochs: u64,
    /// Batch cap per epoch.
    pub max_batches_per_epoch: Option<u64>,
    /// Optimizer hyper-parameters.
    pub sgd: SgdConfig,
    /// Execution mode for training (deterministic is required whenever the
    /// provenance approach is in use).
    pub mode: ExecMode,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            batch_size: 2,
            resolution: 32,
            epochs: 1,
            max_batches_per_epoch: Some(2),
            // The paper assumes "all trainable parameters will change at
            // least marginally" during a retraining. At this scaled-down
            // training length, pure gradient steps vanish below f32
            // resolution for early layers of deep networks; the standard
            // CNN-recipe weight decay (as torchvision training uses) moves
            // every nonzero weight multiplicatively, keeping the paper's
            // assumption true without affecting any timing/storage path.
            // The learning rate stays moderate: an aggressive rate diverges
            // random-init nets to NaN, whose bit patterns then stop changing.
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-3, max_grad_norm: Some(1.0) },
            mode: ExecMode::Deterministic,
        }
    }
}

/// Configuration of one experiment: a flow for a given approach, model
/// architecture, model relation, and U3 dataset (paper §4.1 "one experiment
/// is a full run of the evaluation flow for a given approach, model
/// architecture, model relation, and dataset").
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Which flow (node count / iteration count).
    pub kind: FlowKind,
    /// Save/recover approach under test.
    pub approach: ApproachKind,
    /// Model architecture.
    pub arch: ArchId,
    /// Relation of U2/U3 models to their bases.
    pub relation: ModelRelation,
    /// Dataset used in U3 (CF-512 or CO-512).
    pub u3_dataset: DatasetId,
    /// Dataset used in U2 (the paper uses INet_val; for the provenance
    /// approach it stores the smaller mINet_val, §4.1).
    pub u2_dataset: DatasetId,
    /// Byte-size scale applied to all datasets.
    pub dataset_scale: f64,
    /// Training cost knobs.
    pub train: TrainParams,
    /// Base RNG seed for the whole flow.
    pub seed: u64,
    /// Whether U4 (recover every saved model) runs at the end.
    pub recover_all: bool,
}

impl FlowConfig {
    /// A laptop-sized standard-flow configuration.
    pub fn standard(approach: ApproachKind, arch: ArchId, relation: ModelRelation) -> FlowConfig {
        FlowConfig {
            kind: FlowKind::Standard,
            approach,
            arch,
            relation,
            u3_dataset: DatasetId::CocoFood512,
            u2_dataset: if approach == ApproachKind::Provenance {
                DatasetId::MiniINetVal
            } else {
                DatasetId::INetVal
            },
            dataset_scale: 1.0 / 1024.0,
            train: TrainParams::default(),
            seed: 0,
            recover_all: true,
        }
    }
}

/// One saved model's record.
#[derive(Debug, Clone)]
pub struct SaveRecord {
    /// Use-case label (`"U1"`, `"U3-1-2"`, `"U2"` ...).
    pub use_case: String,
    /// Node index (0 = server).
    pub node: usize,
    /// The saved model id.
    pub id: SavedModelId,
    /// Bytes written by this save (excluding the base model, §4.2).
    pub storage_bytes: u64,
    /// Time-to-save.
    pub tts: Duration,
    /// Per-phase breakdown of the save (hash / diff / serialize / compress /
    /// pack / write), straight from the [`mmlib_core::SaveReport`].
    pub phases: PhaseBreakdown,
    /// Durability sync operations (payload fdatasync / directory fsync)
    /// this save issued. Unlike wall-clock write time, this is independent
    /// of device throughput, so the bench gate reads it to hold the
    /// batch-commit coalescing win.
    pub sync_ops: u64,
}

/// One recovery's record (U4).
#[derive(Debug, Clone)]
pub struct RecoverRecord {
    /// Use-case label of the recovered model.
    pub use_case: String,
    /// Node index the model was saved from.
    pub node: usize,
    /// Time-to-recover (total).
    pub ttr: Duration,
    /// Per-phase breakdown (fetch / rebuild / check_env / verify), straight
    /// from the [`mmlib_core::RecoverReport`].
    pub phases: PhaseBreakdown,
    /// Chain length resolved during recovery.
    pub recovered_bases: u32,
}

/// The outcome of one flow run.
#[derive(Debug, Clone, Default)]
pub struct FlowResult {
    /// Every save, in execution order.
    pub saves: Vec<SaveRecord>,
    /// Every recovery (empty if `recover_all` was off).
    pub recovers: Vec<RecoverRecord>,
    /// Registry-server metrics snapshot (per-opcode request counts, wire
    /// bytes) when the flow ran over [`run_flow_tcp`]; `None` from
    /// [`run_flow`].
    pub transport_stats: Option<serde_json::Value>,
}

/// Node-local state while a flow runs.
struct NodeState {
    service: SaveService,
    model: Model,
    base: SavedModelId,
}

/// Executes one evaluation flow and returns its records.
///
/// Storage is a shared directory (the paper's MongoDB + shared FS); every
/// node opens its own handle so per-save byte accounting stays per-node.
/// Distributed flows run their nodes on concurrent OS threads.
pub fn run_flow(config: &FlowConfig, storage_root: &std::path::Path) -> FlowResult {
    let make_storage = || {
        #[expect(
            clippy::expect_used,
            reason = "flow harness aborts on unusable experiment storage by design"
        )]
        ModelStorage::open(storage_root).expect("storage root must be writable")
    };
    run_flow_inner(config, &make_storage)
}

/// Executes one evaluation flow over real loopback TCP: a `mmlib-net`
/// registry server is spun up over `storage_root` and the server plus every
/// node talk to it through remote store clients — real bytes on real
/// sockets, their time inside each measured TTS. The server is shut down
/// (and its metrics snapshotted into [`FlowResult::transport_stats`])
/// before returning.
///
/// With `faults`, the server injects them (dropped replies, truncated
/// frames, connection resets) — the distributed half of the
/// fault-injection rig. The nodes' retry loops must absorb every fault, so
/// the flow's records come out exactly as they would against a healthy
/// server; what faults *do* leave behind are at-least-once duplicates in
/// the backing store, which `mmlib fsck` finds as orphans. They are taken
/// as an [`Arc`](std::sync::Arc) so callers keep a handle for inspecting
/// the injectors after the flow.
pub fn run_flow_tcp(
    config: &FlowConfig,
    storage_root: &std::path::Path,
    faults: Option<std::sync::Arc<mmlib_net::NetFaults>>,
) -> FlowResult {
    #[expect(
        clippy::expect_used,
        reason = "flow harness aborts on unusable experiment storage by design"
    )]
    let backing = ModelStorage::open(storage_root).expect("storage root must be writable");
    #[expect(
        clippy::expect_used,
        reason = "flow harness aborts when the loopback server cannot bind"
    )]
    let mut server = mmlib_net::RegistryServer::bind_with_config(
        backing,
        "127.0.0.1:0",
        mmlib_net::ServerConfig { faults, ..Default::default() },
    )
    .expect("bind loopback registry server");
    let addr = server.addr();
    let make_storage = move || {
        #[expect(
            clippy::expect_used,
            reason = "flow harness aborts when the loopback server is unreachable"
        )]
        mmlib_net::RemoteStore::builder(addr)
            .build()
            .expect("connect to loopback registry")
            .into_storage()
    };
    let mut result = run_flow_inner(config, &make_storage);
    result.transport_stats = Some(server.metrics().snapshot());
    server.shutdown();
    result
}

/// The flow body behind both entry points; `make_storage` yields one
/// storage handle per participant (server or node).
fn run_flow_inner(
    config: &FlowConfig,
    make_storage: &dyn Fn() -> ModelStorage,
) -> FlowResult {
    let server = SaveService::new(make_storage());

    let mut result = FlowResult::default();

    // ---- U1: initial model, saved with full-snapshot logic by every
    // approach (§3.2/§3.3: "saves the first model with the same logic the
    // BA uses").
    let mut initial = Model::new_initialized(config.arch, config.seed);
    initial.set_fully_trainable();
    let syncs_before = server.storage().sync_ops();
    #[expect(
        clippy::expect_used,
        reason = "a failed save invalidates the whole experiment; the harness aborts"
    )]
    let u1 = server.save(SaveRequest::full(&initial)).expect("U1 save");
    let sync_ops = server.storage().sync_ops() - syncs_before;
    let u1_id = u1.id.clone();
    result.saves.push(SaveRecord {
        use_case: "U1".into(),
        node: 0,
        id: u1.id,
        storage_bytes: u1.storage_bytes,
        tts: u1.tts,
        phases: u1.phases,
        sync_ops,
    });

    // ---- Phase 1: U3 iterations on every node, starting from U1.
    let states = make_node_states(config, make_storage, &initial, &u1_id);
    let phase1 = run_u3_phase_with_states(config, states, 1);
    let mut node_states = Vec::new();
    for (records, state) in phase1 {
        result.saves.extend(records);
        node_states.push(state);
    }

    // ---- U2: the server improves the initial model and deploys it.
    let u2_seed = config.seed ^ 0x5532;
    let (u2_model, u2_record) = {
        let mut model = clone_model(&initial);
        model.arch = config.arch;
        apply_trainability(config.relation, &mut model);
        let record = train_and_save(
            config,
            &server,
            &mut model,
            &u1_id,
            config.u2_dataset,
            u2_seed,
            "U2",
            0,
        );
        (model, record)
    };
    let u2_id = u2_record.id.clone();
    result.saves.push(u2_record);

    // ---- Phase 2: U3 iterations on every node, starting from U2's model.
    for state in &mut node_states {
        state.model = clone_model(&u2_model);
        state.base = u2_id.clone();
    }
    let phase2 = run_u3_phase_with_states(config, node_states, 2);
    for (records, _) in phase2 {
        result.saves.extend(records);
    }

    // ---- U4: recover every saved model from the server.
    if config.recover_all {
        for save in &result.saves {
            #[expect(
                clippy::expect_used,
                reason = "a failed recovery invalidates the whole experiment; the harness aborts"
            )]
            let report = server
                .recover_report(&save.id, RecoverOptions::default())
                .expect("U4 recovery must succeed");
            result.recovers.push(RecoverRecord {
                use_case: save.use_case.clone(),
                node: save.node,
                ttr: report.ttr,
                recovered_bases: report.recovered_bases,
                phases: report.phases,
            });
        }
    }

    result
}

/// Builds fresh node states all starting from `start_model`/`base`.
fn make_node_states(
    config: &FlowConfig,
    make_storage: &dyn Fn() -> ModelStorage,
    start_model: &Model,
    base: &SavedModelId,
) -> Vec<NodeState> {
    (0..config.kind.nodes())
        .map(|_| {
            let storage = make_storage();
            let mut model = clone_model(start_model);
            apply_trainability(config.relation, &mut model);
            NodeState { service: SaveService::new(storage), model, base: base.clone() }
        })
        .collect()
}

/// Runs one U3 phase over prepared node states; nodes execute concurrently
/// (one OS thread per node, as in the paper's multi-node experiments).
/// Returns each node's save records together with its final state.
fn run_u3_phase_with_states(
    config: &FlowConfig,
    states: Vec<NodeState>,
    phase: usize,
) -> Vec<(Vec<SaveRecord>, NodeState)> {
    let iterations = config.kind.u3_iterations();
    let joined = crossbeam::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(node_idx, mut state)| {
                scope.spawn(move |_| {
                    let mut records = Vec::with_capacity(iterations);
                    for n in 1..=iterations {
                        let seed = config.seed
                            ^ ((phase as u64) << 32)
                            ^ ((node_idx as u64) << 16)
                            ^ n as u64;
                        apply_trainability(config.relation, &mut state.model);
                        let label = format!("U3-{phase}-{n}");
                        let record = train_and_save(
                            config,
                            &state.service,
                            &mut state.model,
                            &state.base,
                            config.u3_dataset,
                            seed,
                            &label,
                            node_idx + 1,
                        );
                        state.base = record.id.clone();
                        records.push(record);
                    }
                    (records, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                #[expect(
                    clippy::expect_used,
                    reason = "a panicked node thread invalidates the experiment; propagate it"
                )]
                h.join().expect("node thread panicked")
            })
            .collect()
    });
    #[expect(
        clippy::expect_used,
        reason = "a panicked node scope invalidates the experiment; propagate it"
    )]
    joined.expect("node scope panicked")
}

/// Trains the node/server model on `dataset` and saves it with the
/// configured approach; returns the save record. Training time is NOT part
/// of TTS (the paper's TTS covers extraction + persistence only).
#[allow(clippy::too_many_arguments)]
fn train_and_save(
    config: &FlowConfig,
    service: &SaveService,
    model: &mut Model,
    base: &SavedModelId,
    dataset_id: DatasetId,
    seed: u64,
    label: &str,
    node: usize,
) -> SaveRecord {
    let loader_config = LoaderConfig {
        batch_size: config.train.batch_size,
        resolution: config.train.resolution,
        shuffle: true,
        augment: true,
        seed,
        max_images: config
            .train
            .max_batches_per_epoch
            .map(|b| b * config.train.batch_size as u64),
    };
    let train_config = TrainConfig {
        epochs: config.train.epochs,
        max_batches_per_epoch: config.train.max_batches_per_epoch,
        seed,
        mode: config.train.mode,
    };
    let dataset = Dataset::new(dataset_id, config.dataset_scale);
    let loader = DataLoader::new(dataset, loader_config);

    // Each retraining constructs a fresh optimizer, as the paper's per-use-
    // case training runs do: the pre-training state file is therefore empty
    // and the provenance save is dominated by the dataset (paper Fig. 9).
    let optimizer = Sgd::new(config.train.sgd);
    let optimizer_state_before = optimizer.state_bytes();

    // The (untimed) training itself.
    let mut svc = ImageNetTrainService::new(loader, optimizer, train_config);
    svc.train(model);

    // The timed save: one SaveRequest per approach, and the report carries
    // TTS, bytes, and the per-phase breakdown — no external stopwatch.
    let prov;
    let request = match config.approach {
        ApproachKind::Baseline => SaveRequest::full(model).base(base).relation(config.relation),
        ApproachKind::ParamUpdate => SaveRequest::update(model, base).relation(config.relation),
        ApproachKind::Provenance => {
            prov = TrainProvenance {
                dataset_id,
                dataset_scale: config.dataset_scale,
                dataset_external: false,
                loader_config,
                optimizer: config.train.sgd.into(),
                optimizer_state_before,
                train_config,
                relation: config.relation,
            };
            SaveRequest::provenance(model, base, &prov)
        }
    };
    let syncs_before = service.storage().sync_ops();
    #[expect(
        clippy::expect_used,
        reason = "a failed save invalidates the whole experiment; the harness aborts"
    )]
    let report = service.save(request).expect("flow save");
    let sync_ops = service.storage().sync_ops() - syncs_before;

    SaveRecord {
        use_case: label.to_string(),
        node,
        id: report.id,
        storage_bytes: report.storage_bytes,
        tts: report.tts,
        phases: report.phases,
        sync_ops,
    }
}

/// Copies a model for distribution to a node (U1/U2 deployments).
fn clone_model(model: &Model) -> Model {
    model.duplicate()
}
