//! Store maintenance: dependency-aware deletion and garbage collection.
//!
//! ```text
//! cargo run --release --example store_maintenance
//! ```
//!
//! A store accumulates a chain of derived models plus an abandoned side
//! branch. Deleting a base model that other models still need is refused;
//! garbage collection keeps the chains of the models you declare live and
//! sweeps the rest — including the multi-megabyte dataset containers owned
//! by abandoned provenance saves.

use mmlib::core::gc::{collect_garbage, delete_model, dependency_graph};
use mmlib::core::meta::ModelRelation;
use mmlib::core::{SaveRequest, SaveService, TrainProvenance};
use mmlib::data::loader::LoaderConfig;
use mmlib::data::{DataLoader, Dataset, DatasetId};
use mmlib::model::{ArchId, Model};
use mmlib::store::ModelStorage;
use mmlib::tensor::ExecMode;
use mmlib::train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const SCALE: f64 = 1.0 / 1024.0;

fn retrain(model: &mut Model, seed: u64) -> TrainProvenance {
    model.set_classifier_only_trainable();
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 16,
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
        dataset_id: DatasetId::CocoFood512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoFood512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(model);
    prov
}

fn main() {
    let dir = tempfile::tempdir().expect("temp dir");
    let svc = SaveService::new(ModelStorage::open(dir.path()).expect("open storage"));

    // Build: initial --PUA--> v1 --PUA--> v2, plus an abandoned provenance
    // experiment branched off v1.
    let mut model = Model::new_initialized(ArchId::ResNet18, 1);
    model.set_fully_trainable();
    let initial = svc.save(SaveRequest::full(&model)).unwrap().id;

    retrain(&mut model, 10);
    let v1 = svc.save(SaveRequest::update(&model, &initial)).unwrap().id;

    let mut experiment = model.duplicate();
    let prov = retrain(&mut experiment, 99);
    let abandoned = svc.save(SaveRequest::provenance(&experiment, &v1, &prov)).unwrap().id;

    retrain(&mut model, 11);
    let v2 = svc.save(SaveRequest::update(&model, &v1)).unwrap().id;

    let graph = dependency_graph(&svc).unwrap();
    println!("store holds {} models:", graph.models.len());
    for (id, info) in &graph.models {
        println!(
            "  {id}  {} {:?} (dependents: {})",
            info.approach.abbrev(),
            info.relation,
            graph.dependents.get(id).map_or(0, |d| d.len())
        );
    }

    // Deleting v1 must be refused: v2 and the experiment still need it.
    println!("\ntrying to delete the base {v1} ...");
    match delete_model(&svc, &v1) {
        Err(e) => println!("  refused, as it must be: {e}"),
        Ok(_) => unreachable!("deleting a depended-upon base must fail"),
    }

    // GC with v2 live: sweeps only the abandoned experiment.
    println!("\ngarbage-collecting with {v2} as the only live model ...");
    let report = collect_garbage(&svc, std::slice::from_ref(&v2)).unwrap();
    println!(
        "  removed {} model(s) ({}), {} files, {:.2} MB reclaimed",
        report.removed_models.len(),
        report
            .removed_models
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        report.removed_files,
        report.reclaimed_bytes as f64 / 1e6
    );
    assert_eq!(report.removed_models, vec![abandoned]);

    // v2 still recovers bit-exactly through its kept chain.
    let recovered = svc.recover_report(&v2, mmlib::core::RecoverOptions::default()).unwrap();
    assert!(recovered.model.models_equal(&model));
    println!(
        "\n{v2} still recovers bit-exactly (chain depth {}). ✓",
        recovered.recovered_bases
    );
}
