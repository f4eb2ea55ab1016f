//! The one assembler of baseline and parameter-update saves.
//!
//! A snapshot (BA, paper §3.1) and a parameter update (PUA, §3.2) store the
//! same things: a weights file and a model-info document naming it and
//! holding the layer hashes, after it in one batch; a snapshot adds the
//! architecture code. They differ in what the weights file holds: every
//! layer, or only the layers a Merkle diff against the base's *stored*
//! hashes finds changed — "we can identify the changed layers by only
//! recovering and comparing the direct base model's hash values instead of
//! recursively recovering it fully" — either as a plain state dict or
//! XOR-delta-encoded against the base's parameters (the storage extension
//! of the §4.7 trade-off discussion). A snapshot is the save with no base
//! to diff against.

use std::collections::{BTreeMap, BTreeSet};

use mmlib_compress::EncodedUpdate;
use mmlib_model::Model;
use mmlib_obs::PhaseClock;
use mmlib_store::BatchItem;
use mmlib_tensor::ser::state_to_bytes;
use mmlib_tensor::Tensor;

use crate::error::CoreError;
use crate::merkle::{split_layer, MerkleDiff, MerkleTree};
use crate::meta::{ApproachKind, ModelRelation, SavedModelId};
use crate::recovery::{push, SaveService};

/// What a save stores as its weights file.
pub(crate) enum Encoding<'a> {
    /// Every layer, as a plain state dict: a self-contained snapshot. A base,
    /// if given, is recorded as lineage only — the baseline "explicitly
    /// excludes loading documents holding base model information" at
    /// recovery.
    Snapshot,
    /// The layers that differ from the base, as a plain state dict.
    StateDict,
    /// The layers that differ from the base, XOR-delta-encoded against the
    /// base's parameters, held in memory: the common U3 situation, where
    /// the node just derived the model from its base and still holds both.
    DeltaV1(&'a Model),
}

/// A save's batch, ready to commit, and what the diff and the encoding
/// found on the way.
pub(crate) struct Assembly {
    /// The batch, model-info document last.
    pub(crate) batch: Vec<BatchItem>,
    /// The Merkle diff against the base (updates only).
    pub(crate) diff: Option<MerkleDiff>,
    /// The delta encoding's statistics (`delta_v1` updates only).
    pub(crate) encoded: Option<EncodedUpdate>,
}

/// Diffs the stored base tree against the model's. A base whose layer list
/// differs from this architecture's is a bad document, not an update.
fn diff_against_base(
    base_tree: &MerkleTree,
    tree: &MerkleTree,
    base: &SavedModelId,
) -> Result<MerkleDiff, CoreError> {
    base_tree
        .diff(tree)
        .map_err(|e| CoreError::BadModelDocument { id: base.clone(), reason: e.to_string() })
}

/// Rejects relation/base combinations that cannot be recorded: an initial
/// model has no base, a derived one needs it.
fn check_relation(relation: ModelRelation, base: Option<&SavedModelId>) -> Result<(), CoreError> {
    if relation == ModelRelation::Initial && base.is_some() {
        return Err(crate::report::missing_field("initial models cannot have a base"));
    }
    if relation != ModelRelation::Initial && base.is_none() {
        return Err(crate::report::missing_field("derived models require a base model"));
    }
    Ok(())
}

impl SaveService {
    /// Assembles the batch of a baseline or parameter-update save of
    /// `model` on `base`: the weights file as `encoding` says, the
    /// architecture code for a snapshot, and the model-info document naming
    /// them by `$batch:N` and holding the layer hashes. Item order is
    /// visibility order, so the whole save pays one durability tail.
    pub(crate) fn assemble(
        &self,
        model: &Model,
        base: Option<&SavedModelId>,
        relation: ModelRelation,
        encoding: Encoding<'_>,
        clock: &mut PhaseClock<'_>,
    ) -> Result<Assembly, CoreError> {
        check_relation(relation, base)?;
        let (tree, diff) = match (&encoding, base) {
            // A snapshot's layer hashes are the baseline's optional recovery
            // checksums, always stored: an update on this model diffs
            // against them without recovering it.
            (Encoding::Snapshot, _) => (clock.time("hash", || self.save_tree(model)), None),
            (_, None) => {
                return Err(crate::report::missing_field("this save kind requires a base model"))
            }
            (_, Some(base)) => {
                let base_tree = self.update_base_tree(model, base, &encoding, clock)?;
                let tree = clock.time("hash", || self.save_tree(model));
                let diff = clock.time("diff", || diff_against_base(&base_tree, &tree, base))?;
                (tree, Some(diff))
            }
        };

        // Only the changed layers' state entries (parameters and buffers —
        // both are part of the exact representation) of an update.
        let changed: Option<BTreeSet<&str>> =
            diff.as_ref().map(|d| d.changed.iter().map(String::as_str).collect());
        let entries = model.state_entries();
        let stored: Vec<(&str, &Tensor)> = entries
            .iter()
            .filter(|(path, _, _, _)| {
                changed.as_ref().is_none_or(|c| c.contains(split_layer(path).0))
            })
            .map(|(p, t, _, _)| (p.as_str(), *t))
            .collect();
        let (bytes, encoded) = match encoding {
            Encoding::Snapshot | Encoding::StateDict => {
                (clock.time("serialize", || Vec::from(state_to_bytes(stored))), None)
            }
            Encoding::DeltaV1(base_model) => {
                let base_entries = base_model.state_entries();
                let base_map: BTreeMap<&str, &Tensor> =
                    base_entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
                let base_fn = |name: &str| base_map.get(name).copied();
                let encoded =
                    clock.time("compress", || mmlib_compress::encode_update(&stored, &base_fn));
                (encoded.bytes.clone(), Some(encoded))
            }
        };

        let mut batch = Vec::with_capacity(3);
        let weights = push(&mut batch, BatchItem::File { bytes });
        let code = diff.is_none().then(|| {
            push(&mut batch, BatchItem::File { bytes: model.arch.source_code().into_bytes() })
        });
        let approach =
            if diff.is_some() { ApproachKind::ParamUpdate } else { ApproachKind::Baseline };
        let mut info = self.describe(approach, model, relation, base, &tree)?;
        info.code_file = code; // derived models share the base's code
        info.weights_file = Some(weights);
        info.update_encoding = encoded.as_ref().map(|_| "delta_v1".to_string());
        info.update_layers = diff.as_ref().map(|d| d.changed.clone());
        batch.push(self.model_info_item(&info)?);
        Ok(Assembly { batch, diff, encoded })
    }

    /// The stored layer hashes of `base`, once `model` is checked to be
    /// savable as an update of it: the same architecture, and for a delta,
    /// an in-memory base that is the stored base (or the deltas would
    /// decode against the wrong parameters). Only the base's model-info
    /// document is read — never its parameters.
    fn update_base_tree(
        &self,
        model: &Model,
        base: &SavedModelId,
        encoding: &Encoding<'_>,
        clock: &mut PhaseClock<'_>,
    ) -> Result<MerkleTree, CoreError> {
        let base_info = clock.time("diff", || self.load_model_info(base))?;
        let in_memory = match encoding {
            Encoding::DeltaV1(base_model) => Some(*base_model),
            Encoding::Snapshot | Encoding::StateDict => None,
        };
        if base_info.arch != model.arch.name() || in_memory.is_some_and(|b| b.arch != model.arch) {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: format!(
                    "parameter update requires matching architectures (base {}, model {})",
                    base_info.arch,
                    model.arch.name()
                ),
            });
        }
        if let Some(base_model) = in_memory {
            // Charged to "hash": a Merkle pass over the base's parameters.
            clock.time("hash", || {
                crate::verify::verify_against_root(base_model, &base_info.root_hash, base)
            })?;
        }
        clock.time("diff", || Self::load_layer_hashes(&base_info, base))
    }
}
