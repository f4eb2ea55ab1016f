//! The model-verification probing tool (paper §2.4).
//!
//! "Our probing tool executes a given PyTorch model twice using the same
//! data to compare layer-wise the input and output tensors for the forward
//! and backward pass. These intermediate results can be saved and loaded
//! which enables us to also verify the model reproducibility across
//! different machines."
//!
//! The Rust reproduction records, per probe execution: every parameterized
//! layer's forward output (via a [`mmlib_model::module::ForwardTap`]), the
//! logits, the loss, and every layer's parameter gradients after the
//! backward pass — the layer-wise forward *and* backward comparison of the
//! paper. Reports serialize to JSON so a report produced on one machine can
//! be checked on another.

use mmlib_data::Batch;
use mmlib_model::module::ForwardTap;
use mmlib_model::{Ctx, Model};
use mmlib_tensor::hash::hash_tensor;
use mmlib_tensor::{ExecMode, Pcg32};
use mmlib_train::cross_entropy;
use serde::{Deserialize, Serialize};

/// One recorded intermediate result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Namespaced name (`"forward.logits"`, `"backward.<layer>.<param>"`).
    pub name: String,
    /// SHA-256 digest (hex) of the tensor, or the bit pattern for scalars.
    pub digest: String,
}

/// A full probe execution trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReport {
    /// Architecture probed.
    pub arch: String,
    /// Execution mode used.
    pub mode: ExecMode,
    /// The recorded intermediates, in execution order.
    pub records: Vec<ProbeRecord>,
}

/// Result of comparing two probe reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeComparison {
    /// True when every record matches.
    pub reproducible: bool,
    /// Name of the first diverging record, if any.
    pub first_divergence: Option<String>,
    /// Total records compared.
    pub compared: usize,
}

impl ProbeReport {
    /// Executes one probe run: forward + loss + backward on `batch`, with
    /// dropout seeded by `seed`. The model's parameters and gradients are
    /// restored afterwards, so probing is side-effect free.
    pub fn run(model: &mut Model, batch: &Batch, seed: u64, mode: ExecMode) -> ProbeReport {
        let saved_state = model.state_dict();
        let mut records = Vec::new();

        let mut rng = Pcg32::new(seed, 0x70726f62); // "prob"
        // Layer-wise forward records via the module tap.
        let mut forward_records: Vec<ProbeRecord> = Vec::new();
        let mut sink = |path: &str, t: &mmlib_tensor::Tensor| {
            forward_records.push(ProbeRecord {
                name: format!("forward.{path}"),
                digest: hash_tensor(t).to_hex(),
            });
        };
        let mut ctx = Ctx::train(&mut rng, mode).with_tap(ForwardTap::new(&mut sink));
        model.zero_grad();
        let logits = model.forward(batch.images.clone(), &mut ctx);
        drop(ctx);
        records.append(&mut forward_records);
        let mut ctx = Ctx::train(&mut rng, mode);
        records.push(ProbeRecord {
            name: "forward.logits".into(),
            digest: hash_tensor(&logits).to_hex(),
        });
        let (loss, grad) = cross_entropy(&logits, &batch.labels);
        records.push(ProbeRecord { name: "loss".into(), digest: format!("{:08x}", loss.to_bits()) });
        model.backward(grad, &mut ctx);
        model.visit_trainable_mut(&mut |path, _, grad| {
            records.push(ProbeRecord {
                name: format!("backward.{path}"),
                digest: hash_tensor(grad).to_hex(),
            });
        });

        model.zero_grad();
        #[expect(
            clippy::expect_used,
            reason = "restoring a state dict captured from this same model cannot mismatch"
        )]
        model.load_state_dict(&saved_state).expect("restoring the probed model's own state");
        ProbeReport { arch: model.arch.name().to_string(), mode, records }
    }

    /// Compares two reports record by record.
    pub fn compare(&self, other: &ProbeReport) -> ProbeComparison {
        let mut first = None;
        let compared = self.records.len().max(other.records.len());
        if self.arch != other.arch || self.records.len() != other.records.len() {
            return ProbeComparison {
                reproducible: false,
                first_divergence: Some("<structure>".into()),
                compared,
            };
        }
        for (a, b) in self.records.iter().zip(&other.records) {
            if a != b {
                first = Some(a.name.clone());
                break;
            }
        }
        ProbeComparison { reproducible: first.is_none(), first_divergence: first, compared }
    }

    /// Serializes the report (to ship across machines).
    pub fn to_bytes(&self) -> Vec<u8> {
        #[expect(
            clippy::expect_used,
            reason = "ProbeReport is strings and vecs; serialization is infallible and the API is fixed"
        )]
        serde_json::to_vec_pretty(self).expect("ProbeReport serializes")
    }

    /// Deserializes a report written by [`ProbeReport::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ProbeReport, serde_json::Error> {
        serde_json::from_slice(bytes)
    }
}

/// Probes whether `model` is reproducible under `mode`: executes it twice on
/// the same data and compares all intermediate results.
pub fn probe_reproducibility(
    model: &mut Model,
    batch: &Batch,
    seed: u64,
    mode: ExecMode,
) -> ProbeComparison {
    let a = ProbeReport::run(model, batch, seed, mode);
    let b = ProbeReport::run(model, batch, seed, mode);
    a.compare(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_data::loader::LoaderConfig;
    use mmlib_data::{DataLoader, Dataset, DatasetId};
    use mmlib_model::ArchId;

    fn batch() -> Batch {
        let loader = DataLoader::new(
            Dataset::new(DatasetId::CocoOutdoor512, 0.0002),
            LoaderConfig { batch_size: 4, resolution: 32, max_images: Some(4), ..Default::default() },
        );
        loader.batch(0, 0).unwrap()
    }

    #[test]
    fn deterministic_mode_is_reproducible() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 1);
        model.set_fully_trainable();
        let cmp = probe_reproducibility(&mut model, &batch(), 5, ExecMode::Deterministic);
        assert!(cmp.reproducible, "diverged at {:?}", cmp.first_divergence);
        assert!(cmp.compared > 40, "expected layer-wise records, got {}", cmp.compared);
    }

    #[test]
    fn parallel_mode_is_detected_as_non_reproducible() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 2);
        model.set_fully_trainable();
        // Run a few probes: scheduling nondeterminism is probabilistic, but
        // over full backward passes of a ResNet the chance of two bit-equal
        // runs is negligible; allow a couple of attempts to be safe.
        let b = batch();
        let diverged = (0..3).any(|i| {
            !probe_reproducibility(&mut model, &b, 100 + i, ExecMode::Parallel).reproducible
        });
        assert!(diverged, "parallel mode unexpectedly reproduced bit-identically");
    }

    #[test]
    fn forward_records_are_layer_wise() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 6);
        model.set_fully_trainable();
        let report = ProbeReport::run(&mut model, &batch(), 3, ExecMode::Deterministic);
        let forwards: Vec<&str> = report
            .records
            .iter()
            .filter(|r| r.name.starts_with("forward."))
            .map(|r| r.name.as_str())
            .collect();
        // One record per parameterized leaf + the logits.
        assert_eq!(forwards.len(), model.layers().len() + 1);
        assert_eq!(forwards[0], "forward.conv1");
        assert_eq!(forwards[1], "forward.bn1");
        assert!(forwards.contains(&"forward.layer1.0.body.conv1"));
        assert_eq!(*forwards.last().unwrap(), "forward.logits");
    }

    #[test]
    fn probing_is_side_effect_free() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 3);
        model.set_fully_trainable();
        let before = model.state_dict();
        let _ = ProbeReport::run(&mut model, &batch(), 7, ExecMode::Deterministic);
        let after = model.state_dict();
        for ((p, a), (_, b)) in before.iter().zip(&after) {
            assert!(a.bit_eq(b), "{p} perturbed by probing");
        }
    }

    #[test]
    fn reports_round_trip_across_machines() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 4);
        model.set_fully_trainable();
        let b = batch();
        let report = ProbeReport::run(&mut model, &b, 9, ExecMode::Deterministic);
        let shipped = ProbeReport::from_bytes(&report.to_bytes()).unwrap();
        // "Another machine" reruns and compares against the shipped report.
        let rerun = ProbeReport::run(&mut model, &b, 9, ExecMode::Deterministic);
        assert!(shipped.compare(&rerun).reproducible);
    }

    #[test]
    fn structure_mismatch_is_flagged() {
        let mut m18 = Model::new_initialized(ArchId::ResNet18, 5);
        m18.set_fully_trainable();
        let mut m50 = Model::new_initialized(ArchId::ResNet50, 5);
        m50.set_fully_trainable();
        let b = batch();
        let a = ProbeReport::run(&mut m18, &b, 1, ExecMode::Deterministic);
        let c = ProbeReport::run(&mut m50, &b, 1, ExecMode::Deterministic);
        let cmp = a.compare(&c);
        assert!(!cmp.reproducible);
        assert_eq!(cmp.first_divergence.as_deref(), Some("<structure>"));
    }
}
