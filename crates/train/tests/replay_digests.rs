//! Golden digests of one deterministic training step per architecture.
//!
//! Each case is shaped like one retraining of the `mpa-local` benchmark
//! workload: a 1/64-scale CF-512, one batch of two 32 px images, SGD with
//! momentum, weight decay and gradient clipping, in deterministic mode. The
//! SHA-256 of the model state after the step is pinned, so a change to any
//! kernel's accumulation order — which would silently invalidate every
//! stored provenance replay — fails here.

use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_tensor::hash::sha256;
use mmlib_tensor::ser::state_to_bytes;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const SEED: u64 = 42;

/// SHA-256 of `state_to_bytes` after one step from `new_initialized(arch, 42)`.
const GOLDEN: [(ArchId, &str); 3] = [
    (ArchId::MobileNetV2, "17c9ec0fa258e708fb9ea253ebd4b957b55306c53efddbdc0aa9d7572286e90e"),
    (ArchId::ResNet18, "b15ce05217196bd6721779c252d3deea7f2d57f15a08823bbc44a52ea40e71d1"),
    (ArchId::GoogLeNet, "85690167091dce80763ebff8ada55f979d0da7cbb720ab05b8f8ce4cbf8b5829"),
];

fn state_digest(model: &Model) -> String {
    let entries = model.state_entries();
    let bytes = state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>());
    sha256(&bytes).to_hex()
}

fn one_step(arch: ArchId) -> Model {
    let loader = DataLoader::new(
        Dataset::new(DatasetId::CocoFood512, 1.0 / 64.0),
        LoaderConfig {
            batch_size: 2,
            resolution: 32,
            shuffle: true,
            augment: true,
            seed: SEED,
            max_images: Some(2),
        },
    );
    let sgd = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-3, max_grad_norm: Some(1.0) });
    let config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(1),
        seed: SEED,
        mode: ExecMode::Deterministic,
    };
    let mut model = Model::new_initialized(arch, SEED);
    model.set_fully_trainable();
    ImageNetTrainService::new(loader, sgd, config).train(&mut model);
    model
}

#[test]
fn one_deterministic_step_reproduces_its_golden_digest() {
    let got: Vec<String> = GOLDEN
        .iter()
        .map(|(arch, _)| format!("{}: {}", arch.name(), state_digest(&one_step(*arch))))
        .collect();
    let want: Vec<String> = GOLDEN.iter().map(|(arch, d)| format!("{}: {d}", arch.name())).collect();
    assert_eq!(got, want);
}
