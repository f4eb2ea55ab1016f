//! Batch family recovery: recover a set of related models, rebuilding
//! each shared ancestor exactly once.
//!
//! Recovering *n* siblings of one base independently re-fetches and
//! re-deserializes the base *n* times — the recursive-recovery cost the
//! paper measures, multiplied across the family. `recover_family`
//! memoizes rebuilt models by id: the first target to need an ancestor
//! rebuilds it, every later target copies the in-memory result. Each
//! stored blob is therefore read exactly once per call, no matter how
//! many targets share it.

use std::collections::BTreeMap;

use mmlib_core::meta::SavedModelId;
use mmlib_core::{CoreError, SaveService};
use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock};

use crate::compact::recovery_chain;
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
        let mut cache: BTreeMap<String, Model> = BTreeMap::new();
        let mut breakdown = PhaseBreakdown::new();
        let mut models = Vec::with_capacity(ids.len());

        for target in ids {
            for id in recovery_chain(svc, target)? {
                if cache.contains_key(id.doc_id().as_str()) {
                    continue;
                }
                let base = parent_of(svc, &id)?
                    .and_then(|p| cache.get(p.as_str()))
                    .map(Model::duplicate);
                let model = svc.recover_onto(&id, base, &mut breakdown)?;
                cache.insert(id.doc_id().as_str().to_string(), model);
            }
            let model = cache
                .get(target.doc_id().as_str())
                .map(Model::duplicate)
                .ok_or_else(|| CoreError::BadModelDocument {
                    id: target.clone(),
                    reason: "recovery chain did not produce the target".into(),
                })?;
            if verify {
                svc.verify_recovered(&model, target)?;
            }
            models.push((target.clone(), model));
        }

        obs.inc(FAMILY_RECOVERS, 1);
        obs.inc(FAMILY_MODELS, ids.len() as u64);
        obs.observe(FAMILY_SECONDS, clock.elapsed().as_secs_f64());
        Ok(FamilyRecovery { models, unique_nodes: cache.len(), breakdown })
    }
}

/// The recovery parent of `id`: its base model, unless `id` is a snapshot
/// (a snapshot's base reference is lineage metadata, not a dependency).
fn parent_of(svc: &SaveService, id: &SavedModelId) -> Result<Option<String>, CoreError> {
    let info = svc.load_model_info(id)?;
    Ok(if info.approach == mmlib_core::ApproachKind::Baseline {
        None
    } else {
        info.base_model
    })
}
