//! Model provenance approach (MPA, paper §3.3): save *how* the model was
//! made, not the model.
//!
//! A derived model is represented by (1) the training process — the
//! [`crate::wrapper`]s of the train service, dataloader, and stateful
//! optimizer; (2) the training environment; (3) the training dataset,
//! packed into a single container file (or an external reference when a
//! dedicated dataset manager owns it); and (4) the base-model reference.
//! All of it but the files is the model-info document's: the wrappers and
//! the dataset reference are its [`Provenance`] record. A save is one batch
//! commit: the container, the optimizer's state file, and the model-info
//! document (holding the layer hashes) last. Recovery
//! checks the dataset digest against the stored blobs, recovers the base
//! recursively and *replays the training* deterministically, then verifies
//! the replayed model against the stored Merkle root.

use mmlib_data::loader::LoaderConfig;
use mmlib_data::{container, Dataset, DatasetId};
use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock};
use mmlib_store::BatchItem;
use mmlib_train::{ImageNetTrainService, OptimizerConfig, TrainConfig, TrainService};

use crate::error::CoreError;
use crate::meta::{
    apply_trainability, ApproachKind, DatasetRef, ModelInfoDoc, ModelRelation, Provenance,
    SavedModelId,
};
use crate::recovery::{push, SaveService};
use crate::wrapper;

/// Everything the provenance approach must capture about one training run.
///
/// Build this *before* training (the optimizer state must be the
/// pre-training state so the replay starts from the same point), train, and
/// then save the trained model with a
/// [`SaveRequest::provenance`](crate::report::SaveRequest::provenance) request.
#[derive(Debug, Clone)]
pub struct TrainProvenance {
    /// Which Table 1 dataset was trained on.
    pub dataset_id: DatasetId,
    /// The byte-size scale the dataset was materialized with.
    pub dataset_scale: f64,
    /// `true` when a dedicated external system manages the dataset; mmlib
    /// then stores only the reference, not the container (paper §3.3,
    /// "Managing Data sets" — and the §4.7 scenario where this makes the
    /// MPA's storage shrink to the training information).
    pub dataset_external: bool,
    /// The dataloader's constructor arguments.
    pub loader_config: LoaderConfig,
    /// The optimizer's class and constructor arguments.
    pub optimizer: OptimizerConfig,
    /// The optimizer's serialized internal state *before* training.
    pub optimizer_state_before: Vec<u8>,
    /// The training hyper-parameters.
    pub train_config: TrainConfig,
    /// Relation of the produced model to its base.
    pub relation: ModelRelation,
}

impl SaveService {
    /// Saves `model_after_training` by provenance against `base`.
    ///
    /// The model's parameters are **not** stored — only its Merkle root (to
    /// verify the replay) and the provenance needed to reproduce it.
    pub(crate) fn save_provenance_phased(
        &self,
        model_after_training: &Model,
        base: &SavedModelId,
        prov: &TrainProvenance,
        clock: &mut PhaseClock<'_>,
    ) -> Result<SavedModelId, CoreError> {
        if prov.relation == ModelRelation::Initial {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "provenance saves describe derived models, not initial ones".into(),
            });
        }
        if prov.train_config.mode != mmlib_tensor::ExecMode::Deterministic {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "provenance saves require deterministic training (paper §4.5)".into(),
            });
        }

        // One batch, referents before the model-info document naming them
        // by `$batch:N`: the dataset container unless it is managed
        // externally, and the optimizer's state file.
        let mut batch = Vec::with_capacity(3);
        let dataset = Dataset::new(prov.dataset_id, prov.dataset_scale);
        let (container_file, digest) = if prov.dataset_external {
            (None, dataset.content_digest())
        } else {
            let (packed, digest) = clock.time("pack", || container::pack(&dataset));
            (Some(push(&mut batch, BatchItem::File { bytes: packed })), digest)
        };
        let state =
            push(&mut batch, BatchItem::File { bytes: prov.optimizer_state_before.clone() });
        let provenance = Provenance {
            train_service: wrapper::train_service_wrapper(&prov.train_config)?,
            dataloader: wrapper::loader_wrapper(&prov.loader_config)?,
            optimizer: wrapper::optimizer_wrapper(&prov.optimizer, state)?,
            dataset: DatasetRef {
                name: prov.dataset_id.short_name().to_string(),
                scale: prov.dataset_scale,
                container_file,
                content_digest: digest.to_hex(),
            },
        };
        let tree = clock.time("hash", || self.save_tree(model_after_training));
        let mut info = self.describe(
            ApproachKind::Provenance,
            model_after_training,
            prov.relation,
            Some(base),
            &tree,
        )?;
        info.provenance = Some(provenance);
        batch.push(self.model_info_item(&info)?);
        self.commit(batch, clock)
    }

    /// Recovers a provenance model from its already-recovered base: replays
    /// the training onto it.
    pub(crate) fn replay_onto(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        mut model: Model,
        phases: &mut PhaseBreakdown,
    ) -> Result<Model, CoreError> {
        let prov = info.provenance.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "provenance document lacks its provenance record".into(),
        })?;
        let dataset_ref = &prov.dataset;

        let mut svc: ImageNetTrainService = self.timed(phases, "fetch", || {
            let dataset_id = DatasetId::from_short_name(&dataset_ref.name).ok_or_else(|| {
                CoreError::BadModelDocument {
                    id: id.clone(),
                    reason: format!("unknown dataset {:?}", dataset_ref.name),
                }
            })?;
            let dataset = Dataset::new(dataset_id, dataset_ref.scale);
            // The digest is checked against the stored container's blobs
            // when there is one, so the recorded value vouches for the
            // stored bytes; an external dataset is generated again.
            let digest = match &dataset_ref.container_file {
                Some(file_id) => {
                    let bytes = self.read_file(file_id)?;
                    let unpacked = container::unpack(&bytes)?;
                    if unpacked.id != dataset_id || unpacked.blobs.len() as u64 != dataset.len() {
                        return Err(CoreError::VerificationFailed {
                            id: id.clone(),
                            reason: "dataset container does not match its reference".into(),
                        });
                    }
                    unpacked.content_digest()
                }
                None => dataset.content_digest(),
            };
            if digest.to_hex() != dataset_ref.content_digest {
                return Err(CoreError::VerificationFailed {
                    id: id.clone(),
                    reason: "dataset content digest mismatch".into(),
                });
            }
            wrapper::reconstruct_train_service(self.storage(), prov, dataset)
        })?;

        // Replay the training (the dominant recover cost, §4.4).
        self.timed(phases, "rebuild", || {
            apply_trainability(info.relation, &mut model);
            svc.train(&mut model);
        });
        Ok(model)
    }
}
