//! The fault matrix: every save approach (BA / PUA / MPA) crossed with 32
//! seeded storage fault plans.
//!
//! Each cell runs save → crash → reopen → fsck-repair → recover. The
//! invariant under test is the crash-consistency contract of the atomic
//! write layer: a save either commits completely or not at all, so after a
//! crash every model the store still lists recovers **byte-identical** to
//! the model that was saved — corruption is never silent. Failed saves
//! leave at most orphaned artifacts, which `fsck --repair` quarantines,
//! after which the store checks fully clean.
//!
//! The seed base is fixed so the matrix is deterministic; set
//! `MMLIB_FAULT_SEED_BASE` to explore a different region of the fault
//! space (failures print the exact seed for reproduction).

use mmlib::core::fsck::{fsck, FsckOptions};
use mmlib::core::meta::{ApproachKind, ModelRelation, SavedModelId};
use mmlib::core::{RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib::data::loader::LoaderConfig;
use mmlib::data::{DataLoader, Dataset, DatasetId};
use mmlib::model::{ArchId, Model};
use mmlib::store::fault::FaultPlan;
use mmlib::store::ModelStorage;
use mmlib::tensor::ExecMode;
use mmlib::train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const SEEDS_PER_APPROACH: u64 = 32;
const SCALE: f64 = 1.0 / 8192.0;

/// Fixed default so CI runs the same matrix every time; overridable to
/// sweep a different region of the fault space.
fn seed_base() -> u64 {
    std::env::var("MMLIB_FAULT_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xfa_117)
}

/// One deterministic tiny training step (same shape as the end-to-end
/// tests, scaled down to keep 96 matrix cells fast).
fn train_once(model: &mut Model, seed: u64) -> TrainProvenance {
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 8,
        seed,
        max_images: Some(4),
        ..Default::default()
    };
    let sgd_config = SgdConfig::default();
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed,
        mode: ExecMode::Deterministic,
    };
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader =
        DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(model);
    prov
}

/// Performs the approach's save sequence against `svc`, which may fail at
/// any point from an injected fault. Returns the saves that *committed*,
/// paired with a snapshot of the exact model each one captured.
fn save_sequence(
    svc: &SaveService,
    approach: ApproachKind,
    seed: u64,
) -> Vec<(SavedModelId, Model)> {
    let mut committed = Vec::new();

    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    model.set_fully_trainable();
    let base_id = match svc.save(SaveRequest::full(&model)) {
        Ok(saved) => saved.id,
        Err(_) => return committed, // typed failure; nothing committed
    };
    committed.push((base_id.clone(), model.duplicate()));

    model.set_classifier_only_trainable();
    let result = match approach {
        ApproachKind::Baseline => {
            model.visit_trainable_mut(&mut |_, param, _| param.data_mut()[0] += 0.25);
            svc.save(SaveRequest::full(&model).base(&base_id))
        }
        ApproachKind::ParamUpdate => {
            model.visit_trainable_mut(&mut |_, param, _| param.data_mut()[0] += 0.25);
            svc.save(SaveRequest::update(&model, &base_id))
        }
        ApproachKind::Provenance => {
            let prov = train_once(&mut model, seed);
            svc.save(SaveRequest::provenance(&model, &base_id, &prov))
        }
    };
    if let Ok(saved) = result {
        committed.push((saved.id, model.duplicate()));
    }
    committed
}

/// One matrix cell: save under the seeded fault plan, crash (drop), reopen
/// clean, repair, and verify every surviving model byte-exactly. Returns
/// how many faults fired and how many saves committed.
fn run_cell(approach: ApproachKind, seed: u64) -> (u64, usize) {
    run_cell_with_plan(approach, seed, FaultPlan::storage_from_seed(seed))
}

fn run_cell_with_plan(approach: ApproachKind, seed: u64, plan: FaultPlan) -> (u64, usize) {
    let dir = tempfile::tempdir().unwrap();

    // Save under injected faults.
    let (storage, injector) = ModelStorage::open_with_faults(dir.path(), plan).unwrap();
    let plan = format!("{}", injector.plan());
    let committed = save_sequence(&SaveService::new(storage), approach, seed);
    let fired = injector.injected();
    // "Crash": the faulty handles are dropped here; only what the atomic
    // writes published survives on disk.

    // Reopen clean and quarantine whatever the failed saves left behind.
    let clean = ModelStorage::open(dir.path()).unwrap();
    fsck(&clean, &FsckOptions { repair: true, ..Default::default() })
        .unwrap_or_else(|e| panic!("{approach} {plan}: fsck failed: {e}"));
    let report = fsck(&clean, &FsckOptions::default())
        .unwrap_or_else(|e| panic!("{approach} {plan}: post-repair fsck failed: {e}"));
    assert!(
        report.is_clean(),
        "{approach} {plan}: store dirty after repair: {:?}",
        report.issues
    );

    // Every committed save must recover byte-identical to the snapshot the
    // save captured — a recovery that returns Ok with different bytes is
    // silent corruption, the one outcome the matrix exists to rule out.
    let svc = SaveService::new(clean);
    for (id, expected) in &committed {
        let recovered = svc
            .recover_report(id, RecoverOptions::default())
            .unwrap_or_else(|e| panic!("{approach} {plan}: committed save {id} lost: {e}"));
        assert!(
            recovered.model.models_equal(expected),
            "{approach} {plan}: model {id} recovered with different bytes (silent corruption)"
        );
    }

    // Lineage after crash + repair: the DAG must stay total over the
    // committed models. A model's lineage node is its model-info document,
    // committed in the same batch item, so a crash can leave no committed
    // model without a node and no node without its model.
    let lineage = mmlib::lineage::Lineage::new(&svc);
    let graph = lineage
        .graph()
        .unwrap_or_else(|e| panic!("{approach} {plan}: lineage graph unloadable: {e}"));
    for (id, _) in &committed {
        assert!(
            graph.node(id).is_some(),
            "{approach} {plan}: committed model {id} has no lineage node"
        );
        let ancestry = lineage
            .ancestry(id)
            .unwrap_or_else(|e| panic!("{approach} {plan}: ancestry of {id} broken: {e}"));
        assert!(
            ancestry.iter().all(|n| graph.node(&n.id).is_some()),
            "{approach} {plan}: ancestry of {id} references a missing model"
        );
    }
    (fired, committed.len())
}

fn run_approach(approach: ApproachKind, salt: u64) {
    let base = seed_base();
    let mut total_fired = 0u64;
    let mut interrupted_cells = 0usize;
    for i in 0..SEEDS_PER_APPROACH {
        let (fired, committed) = run_cell(approach, base.wrapping_add(salt).wrapping_add(i));
        total_fired += fired;
        if committed < 2 {
            interrupted_cells += 1;
        }
    }
    // Guard against the matrix degenerating into a fault-free no-op: over
    // 32 plans, faults must actually fire and interrupt some saves.
    assert!(total_fired > 0, "{approach}: no fault fired across the whole matrix");
    assert!(
        interrupted_cells > 0,
        "{approach}: every save sequence completed untouched — plans miss the write window"
    );
}

/// Batch-write crash cells: one precisely-placed fault per cell, swept
/// across every write-operation index of the save sequence so the fault
/// lands on each stage of the batched commit path in turn. Three flavors
/// per index:
///
/// * a short torn write — mid-batch staging crash, or a batch commit that
///   renames only a prefix of its items (in item order);
/// * an IO error — the batch commit failing before any rename (and, at
///   stage indices, a stage failing before any byte is written);
/// * a torn write cut past the end — every rename lands but the crash
///   hits between the last batch rename and the directory fsync.
///
/// The invariant is the same as the seeded matrix: reopen → fsck repairs
/// to clean → every committed save recovers byte-identical, and lineage
/// stays total over the committed models.
fn run_batch_crash_sweep(approach: ApproachKind, salt: u64) {
    use mmlib::store::fault::Fault;
    // The two saves of a sequence consume well under 20 write operations
    // (stages, batch commits, model-info); sweeping them all hits
    // every stage index and both batch-commit indices of each save.
    const OPS_TO_SWEEP: u64 = 18;
    let base = seed_base();
    let mut total_fired = 0u64;
    let mut interrupted_cells = 0usize;
    for op in 0..OPS_TO_SWEEP {
        let cells = [
            Fault::TornWrite { after_bytes: 1 + base.wrapping_add(op) % 7 },
            Fault::IoError,
            Fault::TornWrite { after_bytes: u64::MAX },
        ];
        for fault in cells {
            let plan = FaultPlan::new(base.wrapping_add(salt)).with(op, fault);
            let (fired, committed) =
                run_cell_with_plan(approach, base.wrapping_add(salt).wrapping_add(op), plan);
            total_fired += fired;
            if committed < 2 {
                interrupted_cells += 1;
            }
        }
    }
    assert!(total_fired > 0, "{approach}: no batch-sweep fault fired");
    assert!(
        interrupted_cells > 0,
        "{approach}: batch-sweep faults never interrupted a save — the sweep misses the write window"
    );
}

#[test]
fn fault_matrix_baseline() {
    run_approach(ApproachKind::Baseline, 0);
}

#[test]
fn fault_matrix_param_update() {
    run_approach(ApproachKind::ParamUpdate, 1_000);
}

#[test]
fn fault_matrix_provenance() {
    run_approach(ApproachKind::Provenance, 2_000);
}

#[test]
fn batch_crash_cells_baseline() {
    run_batch_crash_sweep(ApproachKind::Baseline, 3_000);
}

#[test]
fn batch_crash_cells_param_update() {
    run_batch_crash_sweep(ApproachKind::ParamUpdate, 4_000);
}

#[test]
fn batch_crash_cells_provenance() {
    run_batch_crash_sweep(ApproachKind::Provenance, 5_000);
}
