//! Document schemas for saved models.
//!
//! Paper §3.1: metadata lives in JSON documents that reference each other
//! by id. A saved model is one model-info document, holding its
//! environment, its layer hashes and (for the provenance approach) its
//! wrapped training objects inline, and referencing stored files and its
//! base model. The types themselves live in
//! [`mmlib_store::schema`], below both the library and the registry server,
//! and are re-exported here under their long-standing paths. Whether a base
//! is what the model is *recovered from* is
//! [`ModelInfoDoc::recovery_parent`]'s call, and only its; what the model
//! *references* is [`ModelInfoDoc::references`]'s.

pub use mmlib_store::schema::{
    kinds, ApproachKind, DatasetRef, EnvironmentInfo, LayerHashes, LineageRecordDoc,
    ModelInfoDoc, ModelRelation, Provenance, Ref, SavedModelId, Wrapper, BASE_MODEL,
};

/// Applies a relation's trainability to a model (the paper trains all
/// parameters for fully updated versions and "only the last fully connected
/// layers" for partially updated ones).
pub fn apply_trainability(relation: ModelRelation, model: &mut mmlib_model::Model) {
    match relation {
        ModelRelation::Initial | ModelRelation::FullyUpdated => model.set_fully_trainable(),
        ModelRelation::PartiallyUpdated => model.set_classifier_only_trainable(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_trainability_application() {
        let mut m = mmlib_model::Model::new_initialized(mmlib_model::ArchId::ResNet18, 0);
        apply_trainability(ModelRelation::PartiallyUpdated, &mut m);
        assert_eq!(m.trainable_param_count(), 513_000);
        apply_trainability(ModelRelation::FullyUpdated, &mut m);
        assert_eq!(m.trainable_param_count(), m.param_count());
    }
}
