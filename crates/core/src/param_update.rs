//! Parameter-update approach (PUA, paper §3.2): save only what changed.
//!
//! Saving a derived model `M` (`B → M`) compares M's per-layer hashes to
//! B's *stored* hashes and serializes only the changed layers' tensors
//! ([`crate::assemble`], which builds every snapshot and update save).
//!
//! Recovery is recursive: recover B (which may itself be an update), then
//! merge M's parameter update with M's values winning conflicts. Since later
//! values win, an update all of whose layers a later update rewrites cannot
//! change the result: `mmlib_store::schema::links_to_rebuild` plans a tip
//! recovery that never fetches it. Each save records its layers
//! (`update_layers`) for that plan.

use std::collections::BTreeSet;

use mmlib_model::Model;
use mmlib_obs::PhaseBreakdown;
use mmlib_tensor::ser::state_from_bytes;

use crate::error::CoreError;
use crate::merkle::split_layer;
use crate::meta::{ModelInfoDoc, SavedModelId};
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

impl SaveService {
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
