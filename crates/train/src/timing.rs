//! Instrumented training for the deterministic-training study (Fig. 13).
//!
//! The paper measures, per training run, the time spent (a) loading data to
//! the device, (b) in the forward pass, and (c) in the backward pass, in
//! deterministic and non-deterministic mode. [`timed_train`] reproduces that
//! split: data materialization (decode + augment + batch assembly) stands in
//! for the host-to-GPU copy, and forward/backward are the real kernel times
//! under the chosen [`ExecMode`].
//!
//! This is the one module in the deterministic crates allowed to read the
//! wall clock: it *measures* training, it never feeds timing back into
//! parameters, hashes, or replayable state.

use std::time::{Duration, Instant};

use mmlib_data::DataLoader;
use mmlib_model::{Ctx, Model};
use mmlib_tensor::{ExecMode, Pcg32};

use crate::loss::cross_entropy;
use crate::optim::Sgd;

/// Accumulated wall time per training phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainTimings {
    /// Batch materialization (decode, augmentation, stacking).
    pub data_load: Duration,
    /// Forward passes.
    pub forward: Duration,
    /// Backward passes + optimizer steps.
    pub backward: Duration,
    /// Batches processed.
    pub batches: u64,
}

impl TrainTimings {
    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.data_load + self.forward + self.backward
    }
}

/// Trains `model` for `epochs` epochs (optionally capping batches per epoch)
/// and returns the per-phase timings.
#[expect(
    clippy::disallowed_methods,
    reason = "dedicated timing module; wall-clock reads never influence deterministic state"
)]
pub fn timed_train(
    model: &mut Model,
    loader: &DataLoader,
    optimizer: &mut Sgd,
    epochs: u64,
    max_batches_per_epoch: Option<u64>,
    seed: u64,
    mode: ExecMode,
) -> TrainTimings {
    let mut rng = Pcg32::new(seed, 0x7469_6d65_645f_7472); // "timed_tr"
    let mut t = TrainTimings::default();
    let per_epoch = max_batches_per_epoch
        .map_or(u64::MAX, |m| m)
        .min(loader.batches_per_epoch());
    for epoch in 0..epochs {
        for b in 0..per_epoch {
            let start = Instant::now();
            let Some(batch) = loader.batch(epoch, b) else { break };
            t.data_load += start.elapsed();

            let mut ctx = Ctx::train(&mut rng, mode);
            let start = Instant::now();
            let logits = model.forward(batch.images, &mut ctx);
            t.forward += start.elapsed();

            let start = Instant::now();
            let (_, grad) = cross_entropy(&logits, &batch.labels);
            model.zero_grad();
            model.backward(grad, &mut ctx);
            optimizer.step(model);
            t.backward += start.elapsed();
            t.batches += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::SgdConfig;
    use mmlib_data::loader::LoaderConfig;
    use mmlib_data::{Dataset, DatasetId};
    use mmlib_model::ArchId;

    #[test]
    fn timings_cover_all_batches() {
        let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
        model.set_fully_trainable();
        let loader = DataLoader::new(
            Dataset::new(DatasetId::CocoOutdoor512, 0.0005),
            LoaderConfig { batch_size: 2, resolution: 8, max_images: Some(4), ..Default::default() },
        );
        let mut sgd = Sgd::new(SgdConfig::default());
        let t = timed_train(&mut model, &loader, &mut sgd, 2, Some(2), 9, ExecMode::Deterministic);
        assert_eq!(t.batches, 4);
        assert!(t.forward > Duration::ZERO);
        assert!(t.backward > Duration::ZERO);
        assert!(t.total() >= t.forward + t.backward);
    }
}
