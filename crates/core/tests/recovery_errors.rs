//! Failure-injection tests of the recovery path's document handling.

use mmlib_core::meta::{ModelRelation, SavedModelId};
use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::hash::Sha256;
use mmlib_train::TrainService;
use serde_json::json;

mod common;

fn svc(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

#[test]
fn wrong_kind_document_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    // An environment doc is not a model doc.
    let env_id = s.storage().insert_doc("environment", json!({})).unwrap();
    let err = s
        .recover_report(&SavedModelId(env_id), RecoverOptions::default())
        .unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }));
}

#[test]
fn undecodable_body_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let id = s.storage().insert_doc("model_info", json!({"approach": "???"})).unwrap();
    let err = s.recover_report(&SavedModelId(id), RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }));
}

#[test]
fn unknown_architecture_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 1);
    let id = s.save(SaveRequest::full(&model)).unwrap().id;
    // Corrupt the arch field.
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    doc.body["arch"] = json!("lenet-9000");
    s.storage().update_doc(id.doc_id(), doc.body).unwrap();
    let err = s.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }), "{err}");
}

#[test]
fn missing_weights_file_is_reported() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 2);
    let id = s.save(SaveRequest::full(&model)).unwrap().id;
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    let weights = doc.body["weights_file"].as_str().unwrap().to_string();
    s.storage().remove_file(&mmlib_store::FileId::from_string(weights)).unwrap();
    doc.body["code_file"] = doc.body["code_file"].clone();
    let err = s.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::Store(mmlib_store::StoreError::MissingFile(_))), "{err}");
}

#[test]
fn dangling_base_reference_is_reported() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 3);
    model.set_fully_trainable();
    let base = s.save(SaveRequest::full(&model)).unwrap().id;
    model.visit_trainable_mut(&mut |p, t, _| {
        if p.starts_with("fc") {
            t.data_mut()[0] += 1.0;
        }
    });
    let update = s.save(SaveRequest::update(&model, &base)).unwrap().id;
    // Point the update at a nonexistent base.
    let mut doc = s.storage().get_doc(update.doc_id()).unwrap();
    doc.body["base_model"] = json!("gone-1");
    s.storage().update_doc(update.doc_id(), doc.body).unwrap();
    let err = s.recover_report(&update, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::Store(mmlib_store::StoreError::MissingDocument(_))), "{err}");
}

/// The two hostile chains: an update whose base is itself, and two updates
/// that name each other. One loop follows base references and the depth
/// limit is its one guard, so both end there (`mmlib-lineage`'s
/// `hostile_chains_end_at_the_depth_guard` runs compaction and family
/// recovery over the same forgeries).
#[test]
fn cyclic_base_chain_hits_the_depth_guard() {
    for two_cycle in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let s = svc(dir.path());
        let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
        model.set_fully_trainable();
        let base = s.save(SaveRequest::full(&model)).unwrap().id;
        let bump = |model: &mut Model| {
            model.visit_trainable_mut(&mut |p, t, _| {
                if p.starts_with("fc") {
                    t.data_mut()[0] += 1.0;
                }
            })
        };
        bump(&mut model);
        let mid = s.save(SaveRequest::update(&model, &base)).unwrap().id;
        bump(&mut model);
        let tip = s.save(SaveRequest::update(&model, &mid)).unwrap().id;
        // Create the cycle: tip -> tip, or tip -> mid -> tip.
        let forged = if two_cycle { &mid } else { &tip };
        let mut doc = s.storage().get_doc(forged.doc_id()).unwrap();
        doc.body["base_model"] = json!(tip.doc_id().as_str());
        s.storage().update_doc(forged.doc_id(), doc.body).unwrap();
        let err = s.recover_report(&tip, RecoverOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::BaseChainTooDeep { .. }), "{err}");
    }
}

/// A derived document that names no base is malformed; the chain walk says
/// so instead of treating it as a root.
#[test]
fn derived_document_without_a_base_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 6);
    model.set_fully_trainable();
    let base = s.save(SaveRequest::full(&model)).unwrap().id;
    let update = s.save(SaveRequest::update(&model, &base)).unwrap().id;
    let mut doc = s.storage().get_doc(update.doc_id()).unwrap();
    doc.body["base_model"] = json!(null);
    s.storage().update_doc(update.doc_id(), doc.body).unwrap();
    let err = s.recover_report(&update, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }), "{err}");
}

#[test]
fn tampered_root_hash_fails_verification() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 5);
    let id = s.save(SaveRequest::full(&model)).unwrap().id;
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    doc.body["root_hash"] = json!("ff".repeat(32));
    s.storage().update_doc(id.doc_id(), doc.body).unwrap();
    let err = s.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::VerificationFailed { .. }));
}

/// A provenance recovery checks the dataset digest against the blobs it
/// stored: one flipped blob byte, behind a resealed SHA trailer so the
/// container itself still unpacks, fails the recovery. The replay alone
/// would not notice, because the loader derives pixels from image ids.
#[test]
fn a_resealed_container_with_a_flipped_blob_byte_fails_verification() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 9);
    let base = s.save(SaveRequest::full(&model)).unwrap().id;
    let (prov, mut trainer) = common::train_spec(ModelRelation::PartiallyUpdated, 10);
    model.set_classifier_only_trainable();
    trainer.train(&mut model);
    let id = s.save(SaveRequest::provenance(&model, &base, &prov)).unwrap().id;
    assert!(s.recover_report(&id, RecoverOptions::default()).is_ok(), "intact, it recovers");

    let container = s.load_model_info(&id).unwrap().dataset.unwrap().container_file.unwrap();
    let path = dir.path().join("files").join(format!("{container}.bin"));
    let mut bytes = std::fs::read(&path).unwrap();
    let payload_len = bytes.len() - 32;
    // The payload ends with the last blob's last byte.
    bytes[payload_len - 1] ^= 0x01;
    let mut h = Sha256::new();
    h.update(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&h.finalize().0);
    std::fs::write(&path, &bytes).unwrap();
    assert!(mmlib_data::container::unpack(&bytes).is_ok(), "the resealed container unpacks");

    let err = s.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::VerificationFailed { .. }), "{err}");
}
