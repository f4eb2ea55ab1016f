//! Baseline approach (BA, paper §3.1): complete independent snapshots.
//!
//! Save ([`crate::assemble`]): the full serialized state dict and the
//! architecture code as files, and the model-info doc, which holds the
//! environment and the layer hashes. Recovery loads
//! everything back, builds the architecture around the decoded parameters,
//! and verifies. Unlike torchvision's `Model()` + `load_state_dict`, which
//! the paper measures, it runs no initializer first: that init pass was
//! what made GoogLeNet's recovery anomalously slow in Fig. 12, and its cost
//! now shows only in `repro fig12`'s `init` column.

use mmlib_model::Model;
use mmlib_obs::PhaseBreakdown;
use mmlib_tensor::ser::{state_from_bytes, state_to_bytes};

use crate::error::CoreError;
use crate::meta::{ModelInfoDoc, SavedModelId};
use crate::recovery::SaveService;

impl SaveService {
    /// Rewrites an already-saved model in place as a full snapshot.
    ///
    /// `model` must be the recovered parameters of `id` (callers recover it
    /// once; delta-chain compaction in `mmlib-lineage` recovers a whole
    /// chain in one forward pass). The parameters are verified against the
    /// stored Merkle root first, then the full state dict is written as a
    /// new weights file and the model-info document is updated: approach
    /// becomes [`ApproachKind::Baseline`](crate::meta::ApproachKind), the
    /// base moves to `rebased_from` (so the model no longer depends on it),
    /// and a parameter update's old delta file is removed. Content identity
    /// — the id, root hash and layer hashes — is untouched, so
    /// recovery stays byte-identical while its chain depth drops to zero. Returns the file id the old weights file
    /// had, when one was replaced.
    ///
    /// Crash ordering: new file → document update → old-file removal, so an
    /// interruption leaves either the old committed state or the new one,
    /// plus at most an unreferenced file for `fsck --repair` to quarantine.
    pub fn promote_to_snapshot(
        &self,
        id: &SavedModelId,
        model: &Model,
    ) -> Result<Option<String>, CoreError> {
        let mut info = self.load_model_info(id)?;
        crate::verify::verify_against_root(model, &info.root_hash, id)?;
        if info.approach == crate::meta::ApproachKind::Baseline {
            return Ok(None); // already a snapshot — idempotent
        }

        let entries = model.state_entries();
        let bytes =
            state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>());
        let weights_file = self.storage().put_file(&bytes)?;

        let old_weights = info.weights_file.take();
        info.approach = crate::meta::ApproachKind::Baseline;
        info.rebased_from = info.base_model.take();
        info.weights_file = Some(weights_file.as_str().to_string());
        info.update_encoding = None;
        info.update_layers = None;
        self.update_model_info(id, &info)?;

        if let Some(old) = &old_weights {
            self.storage().remove_file(&mmlib_store::FileId::from_string(old.clone()))?;
        }
        Ok(old_weights)
    }

    /// Recovers a baseline snapshot (no recursion).
    pub(crate) fn recover_full(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        phases: &mut PhaseBreakdown,
    ) -> Result<Model, CoreError> {
        let arch = self.arch_of(info, id)?;
        let weights_id = info.weights_file.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "baseline document lacks a weights file".into(),
        })?;

        let bytes = self.timed(phases, "fetch", || {
            let bytes = self.read_file(weights_id)?;
            // The code file is loaded too (it is part of the exact
            // representation), although the Rust build resolves the
            // architecture from its identifier.
            if let Some(code_id) = &info.code_file {
                self.read_file(code_id)?;
            }
            Ok::<_, CoreError>(bytes)
        })?;

        // Build the architecture around the decoded tensors. No initializer
        // runs: torchvision would initialize every parameter only to
        // overwrite it, which is a departure from the paper kept on purpose.
        self.timed(phases, "rebuild", || Ok(Model::from_state(arch, state_from_bytes(&bytes)?)?))
    }
}
