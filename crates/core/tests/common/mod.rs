//! Helpers shared by the integration tests (each test binary compiles its
//! own copy, so not every binary uses every item).
#![allow(dead_code)]

use mmlib_core::meta::ModelRelation;
use mmlib_core::TrainProvenance;
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig};

/// Dataset byte-size scale the tests train on.
pub const SCALE: f64 = 0.0002;

/// A two-batch deterministic SGD run and the provenance describing it:
/// train a model with the returned service, then save it with the returned
/// provenance.
pub fn train_spec(relation: ModelRelation, seed: u64) -> (TrainProvenance, ImageNetTrainService) {
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 16,
        shuffle: true,
        augment: true,
        seed,
        max_images: Some(4),
    };
    let sgd_config = SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0, max_grad_norm: None };
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed,
        mode: ExecMode::Deterministic,
    };
    let dataset = Dataset::new(DatasetId::CocoOutdoor512, SCALE);
    let loader = DataLoader::new(dataset, loader_config);
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation,
    };
    (prov, ImageNetTrainService::new(loader, sgd, train_config))
}
