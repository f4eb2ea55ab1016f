//! Model provenance approach (MPA, paper §3.3): save *how* the model was
//! made, not the model.
//!
//! A derived model is represented by (1) the training process — a
//! [`crate::wrapper`] tree of the train service, dataloader, and stateful
//! optimizer; (2) the training environment; (3) the training dataset,
//! packed into a single container file (or an external reference when a
//! dedicated dataset manager owns it); and (4) the base-model reference.
//! A save is one batch commit of all of it, model-info last. Recovery
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
    apply_trainability, ApproachKind, DatasetRef, ModelInfoDoc, ModelRelation, SavedModelId,
};
use crate::recovery::SaveService;
use crate::wrapper;

/// Appends `item` to `batch`, returning the `$batch:N` reference to it.
fn push(batch: &mut Vec<BatchItem>, item: BatchItem) -> String {
    batch.push(item);
    mmlib_store::batch_ref(batch.len() - 1)
}

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

        // One batch, referents before the documents naming them by
        // `$batch:N`: (3) the dataset container unless it is managed
        // externally, (1) the wrapper tree of the training process, (2) the
        // environment and the trained model's layer hashes, and (4) the
        // model-info document tying in the base reference.
        let mut batch = Vec::with_capacity(8);
        let dataset = Dataset::new(prov.dataset_id, prov.dataset_scale);
        let (container_file, digest) = if prov.dataset_external {
            (None, dataset.content_digest())
        } else {
            let (packed, digest) = clock.time("pack", || container::pack(&dataset));
            (Some(push(&mut batch, BatchItem::File { bytes: packed })), digest)
        };
        let loader = push(&mut batch, wrapper::loader_wrapper_item(&prov.loader_config)?);
        let state =
            push(&mut batch, BatchItem::File { bytes: prov.optimizer_state_before.clone() });
        let optimizer = push(&mut batch, wrapper::optimizer_wrapper_item(&prov.optimizer, state)?);
        let train_doc = push(
            &mut batch,
            wrapper::train_service_wrapper_item(&prov.train_config, loader, optimizer)?,
        );
        let environment_doc = push(&mut batch, self.environment_item()?);
        let tree = clock.time("hash", || self.save_tree(model_after_training));
        let layer_hash_doc = push(&mut batch, self.layer_hashes_item(&tree)?);
        let info = ModelInfoDoc {
            approach: ApproachKind::Provenance,
            arch: model_after_training.arch.name().to_string(),
            relation: prov.relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc,
            code_file: None,
            weights_file: None,
            update_encoding: None,
            update_layers: None,
            layer_hash_doc,
            root_hash: tree.root().to_hex(),
            train_doc: Some(train_doc),
            dataset: Some(DatasetRef {
                name: prov.dataset_id.short_name().to_string(),
                scale: prov.dataset_scale,
                container_file,
                content_digest: digest.to_hex(),
            }),
            tags: Vec::new(),
            rebased_from: None,
        };
        batch.push(self.model_info_item(&info)?);
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        Ok(SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().last())?))
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
        // Load provenance pieces.
        let dataset_ref = info.dataset.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "provenance document lacks a dataset reference".into(),
        })?;
        let train_doc = info.train_doc.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "provenance document lacks a train-service reference".into(),
        })?;

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
            wrapper::reconstruct_train_service(
                self.storage(),
                &mmlib_store::DocId::from_string(train_doc.clone()),
                dataset,
            )
        })?;

        // Replay the training (the dominant recover cost, §4.4).
        self.timed(phases, "rebuild", || {
            apply_trainability(info.relation, &mut model);
            svc.train(&mut model);
        });
        Ok(model)
    }
}
