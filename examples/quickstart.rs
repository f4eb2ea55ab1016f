//! Quickstart: save and recover a model with all three approaches.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a ResNet-18, derives a partially-updated version by retraining the
//! classifier on a local dataset, and saves the derived model with the
//! baseline, parameter-update, and provenance approaches, printing what each
//! costs in storage, time-to-save, and time-to-recover.

use mmlib::core::meta::ModelRelation;
use mmlib::core::{RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib::data::loader::LoaderConfig;
use mmlib::data::{DataLoader, Dataset, DatasetId};
use mmlib::model::{ArchId, Model};
use mmlib::store::ModelStorage;
use mmlib::tensor::ExecMode;
use mmlib::train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

fn main() {
    let dir = tempfile::tempdir().expect("temp dir");
    let storage = ModelStorage::open(dir.path()).expect("open storage");
    let svc = SaveService::new(storage);

    // --- An initial model (paper use case U1). ---------------------------
    let mut model = Model::new_initialized(ArchId::ResNet18, 42);
    model.set_fully_trainable();
    println!("initial ResNet-18: {} parameters, {:.1} MB state", model.param_count(),
        model.state_nbytes() as f64 / 1e6);
    let base_id = svc.save(SaveRequest::full(&model)).expect("save U1").id;
    println!("saved initial model as {base_id}\n");

    // --- Derive a partially-updated version (use case U3). ---------------
    // A node retrains only the classifier on locally collected data.
    model.set_classifier_only_trainable();
    let seed = 7;
    let loader_config = LoaderConfig {
        batch_size: 4,
        resolution: 32,
        seed,
        max_images: Some(8),
        ..Default::default()
    };
    let sgd_config = SgdConfig::default();
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed,
        mode: ExecMode::Deterministic, // required for provenance recovery
    };
    let dataset_scale = 1.0 / 256.0; // keep the example snappy
    let dataset = Dataset::new(DatasetId::CocoFood512, dataset_scale);
    let loader = DataLoader::new(dataset, loader_config);
    let sgd = Sgd::new(sgd_config);
    let provenance = TrainProvenance {
        dataset_id: DatasetId::CocoFood512,
        dataset_scale,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(&mut model);
    println!("retrained the classifier locally (loss = {:.3})\n", trainer.last_loss().unwrap());

    // --- Save the derived model with each approach. ----------------------
    let mut ids = Vec::new();
    for (approach, request) in [
        ("baseline", SaveRequest::full(&model).base(&base_id)),
        ("param_update", SaveRequest::update(&model, &base_id)),
        ("provenance", SaveRequest::provenance(&model, &base_id, &provenance)),
    ] {
        let saved = svc.save(request).unwrap();
        if let Some(diff) = &saved.diff {
            println!(
                "  (param-update diff: {} of {} layers changed, {} hash comparisons)",
                diff.changed.len(),
                model.layers().len(),
                diff.comparisons
            );
        }
        println!(
            "{approach:>13}: saved {:>10.3} MB in {:>8.1?}  -> {}",
            saved.storage_bytes as f64 / 1e6,
            saved.tts,
            saved.id
        );
        ids.push((approach, saved.id));
    }

    // --- Recover each one and verify bit-exactness (use case U4). --------
    println!();
    for (approach, id) in &ids {
        let recovered = svc.recover_report(id, RecoverOptions::default()).expect("recover");
        assert!(recovered.model.models_equal(&model), "recovery must be exact");
        println!(
            "{approach:>13}: recovered bit-exactly in {:>8.1?} \
             (chain depth {}, verify {:?})",
            recovered.ttr,
            recovered.recovered_bases,
            recovered.phases.get("verify")
        );
    }
    println!("\nAll three approaches recovered the exact same model. ✓");
}
