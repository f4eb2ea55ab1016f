//! Batch family recovery: recover a set of related models, rebuilding
//! each shared ancestor exactly once.
//!
//! Recovering *n* siblings of one base independently re-fetches and
//! re-deserializes the base *n* times — the recursive-recovery cost the
//! paper measures, multiplied across the family. `recover_family`
//! memoizes rebuilt models by id: the first target to need an ancestor
//! rebuilds it, every later target copies the in-memory result, and a
//! target's chain walk (`SaveService::recovery_chain`) ends at the first
//! ancestor already rebuilt. Each stored blob and each model-info document
//! is therefore read exactly once per call, no matter how many targets
//! share it.

use std::collections::BTreeMap;

use mmlib_core::meta::SavedModelId;
use mmlib_core::verify::verify_against_root;
use mmlib_core::{CoreError, RecoverOptions};
use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock};

use crate::{Lineage, FAMILY_MODELS, FAMILY_RECOVERS, FAMILY_SECONDS};

/// The result of one batch family recovery.
pub struct FamilyRecovery {
    /// The recovered models, in the order the targets were requested.
    pub models: Vec<(SavedModelId, Model)>,
    /// Distinct chain nodes rebuilt (targets plus shared ancestors).
    pub unique_nodes: usize,
    /// Aggregate `fetch` / `rebuild` time over every rebuild in the batch.
    pub breakdown: PhaseBreakdown,
}

impl Lineage<'_> {
    /// Recovers every model in `ids`, sharing ancestor rebuilds across the
    /// batch. With `verify`, each returned model is checked against its
    /// stored Merkle root (shared ancestors that are not themselves
    /// targets are only verified implicitly, through the roots of the
    /// models built on top of them).
    pub fn recover_family(
        &self,
        ids: &[SavedModelId],
        verify: bool,
    ) -> Result<FamilyRecovery, CoreError> {
        let obs = self.obs();
        // Read for its total only: the family histogram has no phase label.
        let clock = PhaseClock::new(obs, FAMILY_SECONDS, "phase");
        let svc = self.svc();
        // Every node rebuilt so far, with the Merkle root its document stores.
        let mut cache: BTreeMap<SavedModelId, (String, Model)> = BTreeMap::new();
        let mut breakdown = PhaseBreakdown::new();
        let mut models = Vec::with_capacity(ids.len());
        let limit = RecoverOptions::default().max_chain_depth;

        for target in ids {
            // The walk ends at the first ancestor an earlier target rebuilt,
            // so each model-info document is read once per call.
            let missing = svc.recovery_chain(target, limit, |id| cache.contains_key(id))?;
            for (id, info) in missing.into_iter().rev() {
                let base = info
                    .recovery_parent()
                    .and_then(|p| cache.get(&p))
                    .map(|(_, model)| model.duplicate());
                let model = svc.recover_step(&info, &id, base, &mut breakdown)?;
                cache.insert(id, (info.root_hash, model));
            }
            let (root_hash, model) = cache
                .get(target)
                .map(|(root_hash, model)| (root_hash, model.duplicate()))
                .ok_or_else(|| CoreError::BadModelDocument {
                    id: target.clone(),
                    reason: "recovery chain did not produce the target".into(),
                })?;
            if verify {
                verify_against_root(&model, root_hash, target)?;
            }
            models.push((target.clone(), model));
        }

        obs.inc(FAMILY_RECOVERS, 1);
        obs.inc(FAMILY_MODELS, ids.len() as u64);
        obs.observe(FAMILY_SECONDS, clock.elapsed().as_secs_f64());
        Ok(FamilyRecovery { models, unique_nodes: cache.len(), breakdown })
    }
}
