//! Parameter-update approach (PUA, paper §3.2): save only what changed.
//!
//! Saving a derived model `M` (`B → M`) compares M's per-layer hashes to
//! B's *stored* hashes — loading only B's Merkle document, never its
//! parameters ("we can identify the changed layers by only recovering and
//! comparing the direct base model's hash values instead of recursively
//! recovering it fully"). Only the changed layers' tensors are serialized.
//!
//! Recovery is recursive: recover B (which may itself be an update), then
//! merge M's parameter update with M's values winning conflicts. Since later
//! values win, an update all of whose layers a later update rewrites cannot
//! change the result: `mmlib_store::schema::links_to_rebuild` plans a tip
//! recovery that never fetches it. Each save records its layers
//! (`update_layers`) for that plan.

use std::collections::BTreeSet;

use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock};
use mmlib_tensor::ser::{state_from_bytes, state_to_bytes};

use crate::error::CoreError;
use crate::merkle::{split_layer, MerkleDiff, MerkleTree};
use crate::meta::{ApproachKind, ModelInfoDoc, ModelRelation, SavedModelId};
use crate::recovery::SaveService;

/// Why an update file holding the layers `held` disagrees with its
/// document's `update_layers`, or `None` when they agree or the document
/// lists none. Recovery skips updates by that list, so recovery and fsck
/// both hold each file they read to it.
pub(crate) fn update_layers_mismatch<'a>(
    info: &'a ModelInfoDoc,
    held: impl IntoIterator<Item = &'a str>,
) -> Option<String> {
    let listed: BTreeSet<&str> =
        info.update_layers.as_ref()?.iter().map(String::as_str).collect();
    let held: BTreeSet<&str> = held.into_iter().collect();
    (held != listed)
        .then(|| format!("update file holds layers {held:?}, its document lists {listed:?}"))
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

impl SaveService {
    /// Saves `model` as a parameter update against `base`.
    ///
    /// Returns the saved id and the Merkle diff that determined the update
    /// (exposed for the Fig. 4 comparison-count experiments).
    pub(crate) fn save_update_phased(
        &self,
        model: &Model,
        base: &SavedModelId,
        relation: ModelRelation,
        clock: &mut PhaseClock<'_>,
    ) -> Result<(SavedModelId, MerkleDiff), CoreError> {
        crate::baseline::check_relation(relation, Some(base))?;

        // Load only the base's hash document — not its parameters.
        let base_info = clock.time("diff", || self.load_model_info(base))?;
        if base_info.arch != model.arch.name() {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: format!(
                    "parameter update requires matching architectures (base {}, model {})",
                    base_info.arch,
                    model.arch.name()
                ),
            });
        }
        let base_tree = clock.time("diff", || self.load_layer_hashes(&base_info, base))?;
        let tree = clock.time("hash", || self.save_tree(model));
        let diff = clock.time("diff", || diff_against_base(&base_tree, &tree, base))?;

        // Serialize only the changed layers' state entries (parameters and
        // buffers — both are part of the exact representation).
        let changed: std::collections::BTreeSet<&str> =
            diff.changed.iter().map(|s| s.as_str()).collect();
        let entries = model.state_entries();
        let bytes = clock.time("serialize", || {
            let update: Vec<(&str, &mmlib_tensor::Tensor)> = entries
                .iter()
                .filter(|(path, _, _, _)| changed.contains(split_layer(path).0))
                .map(|(p, t, _, _)| (p.as_str(), *t))
                .collect();
            Vec::from(state_to_bytes(update))
        });

        // One batch commits the whole save: artifacts, then model-info
        // referencing them via `$batch:N` — item order is visibility order,
        // so crash windows match the old sequential writes at a fraction of
        // the sync cost.
        let info = ModelInfoDoc {
            approach: ApproachKind::ParamUpdate,
            arch: model.arch.name().to_string(),
            relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(1),
            code_file: None, // derived models share the base's code
            weights_file: Some(mmlib_store::batch_ref(0)),
            update_encoding: None,
            update_layers: Some(diff.changed.clone()),
            layer_hash_doc: mmlib_store::batch_ref(2),
            root_hash: tree.root().to_hex(),
            train_doc: None,
            dataset: None,
            tags: Vec::new(),
            rebased_from: None,
        };
        let batch = vec![
            mmlib_store::BatchItem::File { bytes },
            self.environment_item()?,
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        let id = SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(3))?);
        Ok((id, diff))
    }

    /// Saves `model` as a **delta-compressed** parameter update against
    /// `base` — the storage extension of the §4.7 trade-off discussion.
    ///
    /// Unlike the plain parameter update, this needs the base model's
    /// parameters *in memory* (`base_model`) to form XOR deltas. That is the
    /// common U3 situation: the node just derived `model` from `base_model`
    /// and still holds both. The base's integrity is checked against the
    /// stored root hash before any delta is formed.
    pub(crate) fn save_update_compressed_phased(
        &self,
        model: &Model,
        base_model: &Model,
        base: &SavedModelId,
        relation: ModelRelation,
        clock: &mut PhaseClock<'_>,
    ) -> Result<(SavedModelId, MerkleDiff, mmlib_compress::EncodedUpdate), CoreError> {
        crate::baseline::check_relation(relation, Some(base))?;
        let base_info = clock.time("diff", || self.load_model_info(base))?;
        if base_info.arch != model.arch.name() || base_model.arch != model.arch {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "delta update requires matching architectures".into(),
            });
        }
        // The in-memory base must be the stored base, or deltas would
        // decode against the wrong parameters. (Charged to "hash": this is
        // a Merkle pass over the base's parameters.)
        clock.time("hash", || {
            crate::verify::verify_against_root(base_model, &base_info.root_hash, base)
        })?;

        let base_tree = clock.time("diff", || self.load_layer_hashes(&base_info, base))?;
        let tree = clock.time("hash", || self.save_tree(model));
        let diff = clock.time("diff", || diff_against_base(&base_tree, &tree, base))?;
        let changed: std::collections::BTreeSet<&str> =
            diff.changed.iter().map(|s| s.as_str()).collect();

        let entries = model.state_entries();
        let update: Vec<(&str, &mmlib_tensor::Tensor)> = entries
            .iter()
            .filter(|(path, _, _, _)| changed.contains(split_layer(path).0))
            .map(|(p, t, _, _)| (p.as_str(), *t))
            .collect();

        let base_entries = base_model.state_entries();
        let base_map: std::collections::BTreeMap<&str, &mmlib_tensor::Tensor> =
            base_entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
        let base_fn = |name: &str| base_map.get(name).copied();
        let encoded = clock.time("compress", || mmlib_compress::encode_update(&update, &base_fn));

        // Same single-batch layout as the uncompressed path above.
        let info = ModelInfoDoc {
            approach: ApproachKind::ParamUpdate,
            arch: model.arch.name().to_string(),
            relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(1),
            code_file: None,
            weights_file: Some(mmlib_store::batch_ref(0)),
            update_encoding: Some("delta_v1".to_string()),
            update_layers: Some(diff.changed.clone()),
            layer_hash_doc: mmlib_store::batch_ref(2),
            root_hash: tree.root().to_hex(),
            train_doc: None,
            dataset: None,
            tags: Vec::new(),
            rebased_from: None,
        };
        let batch = vec![
            mmlib_store::BatchItem::File { bytes: encoded.bytes.clone() },
            self.environment_item()?,
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        let id = SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(3))?);
        Ok((id, diff, encoded))
    }

    /// Recovers a parameter-update model from its already-recovered base:
    /// merges the update onto it.
    pub(crate) fn apply_update_onto(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        mut model: Model,
        phases: &mut PhaseBreakdown,
    ) -> Result<Model, CoreError> {
        let weights_id = info.weights_file.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "parameter-update document lacks an update file".into(),
        })?;
        let bytes = self.timed(phases, "fetch", || self.read_file(weights_id))?;

        self.timed(phases, "rebuild", || {
            let entries = match info.update_encoding.as_deref() {
                None | Some("state_dict") => state_from_bytes(&bytes)?,
                Some("delta_v1") => {
                    // Decode XOR deltas against the just-recovered base.
                    let base_entries = model.state_entries();
                    let base_map: std::collections::BTreeMap<&str, &mmlib_tensor::Tensor> =
                        base_entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
                    let base_fn = |name: &str| base_map.get(name).copied();
                    let decoded = mmlib_compress::decode_update(&bytes, &base_fn).map_err(|e| {
                        CoreError::BadModelDocument {
                            id: id.clone(),
                            reason: format!("undecodable delta update: {e}"),
                        }
                    })?;
                    drop(base_map);
                    drop(base_entries);
                    decoded
                }
                Some(other) => {
                    return Err(CoreError::BadModelDocument {
                        id: id.clone(),
                        reason: format!("unknown update encoding {other:?}"),
                    })
                }
            };
            let held = entries.iter().map(|(p, _)| split_layer(p).0);
            if let Some(reason) = update_layers_mismatch(info, held) {
                return Err(CoreError::BadModelDocument { id: id.clone(), reason });
            }
            // Merge policy (§3.2): prioritize M's information on conflicts.
            model.apply_update(&entries)?;
            Ok(model)
        })
    }
}
