//! Chain policies: bounding the recovery staircase.
//!
//! The paper's §4.7 frames the central trade-off: PUA/MPA save storage but
//! their recursive recovery cost grows with every derived model (the
//! Fig. 11/15 staircases), while the baseline caps recovery at one load by
//! paying full storage every time. A *chain policy* interpolates: save
//! cheaply (update or provenance) while the base chain is short, and
//! *promote* to a full snapshot whenever the chain would exceed a depth
//! bound. Storage stays near the cheap approach's, and TTR is bounded by
//! `max_depth` links — a knob directly on the paper's storage-retraining
//! trade-off ("how much TTR (and resources) we want to invest to save
//! storage").

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::meta::{ApproachKind, SavedModelId};
use crate::recovery::SaveService;

/// A depth-bounded save policy, applied by a
/// [`SaveRequest::with_policy`](crate::report::SaveRequest::with_policy) save.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainPolicy {
    /// The approach used while the chain is short.
    pub cheap: ApproachKind,
    /// Maximum recovery-chain depth: saving a model whose chain would
    /// become deeper than this promotes it to a full snapshot instead.
    /// `0` degenerates to the baseline; large values degenerate to the
    /// cheap approach.
    pub max_depth: usize,
}

impl ChainPolicy {
    /// Parameter updates with at most `max_depth` chain links.
    pub fn updates(max_depth: usize) -> ChainPolicy {
        ChainPolicy { cheap: ApproachKind::ParamUpdate, max_depth }
    }

    /// Provenance saves with at most `max_depth` replay links.
    pub fn provenance(max_depth: usize) -> ChainPolicy {
        ChainPolicy { cheap: ApproachKind::Provenance, max_depth }
    }
}

impl SaveService {
    /// Walks the stored base chain of `id` and returns its recovery depth
    /// (0 for a baseline snapshot). Only documents are read — never
    /// parameters — so this is cheap even for deep chains.
    pub fn chain_depth(&self, id: &SavedModelId) -> Result<usize, CoreError> {
        let mut depth = 0usize;
        let mut cur = id.clone();
        loop {
            let info = self.load_model_info(&cur)?;
            if info.approach == ApproachKind::Baseline {
                return Ok(depth);
            }
            match info.base_model {
                Some(base) => {
                    depth += 1;
                    if depth > 4096 {
                        return Err(CoreError::BaseChainTooDeep { id: id.clone(), limit: 4096 });
                    }
                    cur = SavedModelId(mmlib_store::DocId::from_string(base));
                }
                None => return Ok(depth),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_model::{ArchId, Model};
    use mmlib_store::ModelStorage;
    use crate::recovery::RecoverOptions;
    use crate::report::SaveRequest;

    fn bump_classifier(model: &mut Model, salt: f32) {
        let prefix = model.arch.classifier_prefix();
        model.visit_trainable_mut(&mut |path, param, _| {
            if path.starts_with(prefix) {
                param.data_mut()[0] += salt;
            }
        });
    }

    #[test]
    fn chain_depth_counts_links() {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
        model.set_fully_trainable();
        let mut id = svc.save(SaveRequest::full(&model)).unwrap().id;
        assert_eq!(svc.chain_depth(&id).unwrap(), 0);
        for expected in 1..=3usize {
            bump_classifier(&mut model, expected as f32);
            let next = svc.save(SaveRequest::update(&model, &id)).unwrap().id;
            assert_eq!(svc.chain_depth(&next).unwrap(), expected);
            id = next;
        }
    }

    #[test]
    fn policy_promotes_at_the_bound_and_resets_the_staircase() {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, 2);
        model.set_fully_trainable();
        let mut base = svc.save(SaveRequest::full(&model)).unwrap().id;
        let policy = ChainPolicy::updates(2);

        let mut used = Vec::new();
        for i in 0..7 {
            bump_classifier(&mut model, (i + 1) as f32);
            let outcome = svc.save(SaveRequest::with_policy(&model, &base, policy)).unwrap();
            // Recover every saved model exactly.
            let rec = svc.recover_report(&outcome.id, RecoverOptions::default()).unwrap();
            assert!(rec.model.models_equal(&model), "save {i}");
            assert!(outcome.chain_depth.unwrap() <= 2);
            used.push(outcome.approach);
            base = outcome.id;
        }
        // Pattern: two cheap saves, then a promotion, repeating.
        assert_eq!(
            used,
            [
                ApproachKind::ParamUpdate,
                ApproachKind::ParamUpdate,
                ApproachKind::Baseline,
                ApproachKind::ParamUpdate,
                ApproachKind::ParamUpdate,
                ApproachKind::Baseline,
                ApproachKind::ParamUpdate,
            ]
        );
    }

    #[test]
    fn zero_depth_policy_degenerates_to_baseline() {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, 3);
        model.set_fully_trainable();
        let base = svc.save(SaveRequest::full(&model)).unwrap().id;
        bump_classifier(&mut model, 1.0);
        let outcome =
            svc.save(SaveRequest::with_policy(&model, &base, ChainPolicy::updates(0))).unwrap();
        assert_eq!(outcome.approach, ApproachKind::Baseline);
        assert_eq!(outcome.chain_depth, Some(0));
    }

    #[test]
    fn provenance_policy_requires_provenance_data() {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
        model.set_fully_trainable();
        let base = svc.save(SaveRequest::full(&model)).unwrap().id;
        bump_classifier(&mut model, 1.0);
        let err = svc
            .save(SaveRequest::with_policy(&model, &base, ChainPolicy::provenance(3)))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadModelDocument { .. }));
    }
}
