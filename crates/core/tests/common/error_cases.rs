//! The recovery failure cases: each damages a fresh store and names the
//! model whose recovery must fail, and the error it must fail with.
//! `recovery_errors.rs` recovers each in-process; `mmlib-dist`'s
//! `remote_recovery.rs` recovers each through a loopback registry too, and
//! expects the same error.

use std::path::Path;

use mmlib_core::meta::{ModelRelation, SavedModelId};
use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::{FileId, StoreError};
use mmlib_tensor::hash::Sha256;
use mmlib_train::TrainService;
use serde_json::json;

/// The error a case's recovery must end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    BadDocument,
    MissingFile,
    MissingDocument,
    TooDeep,
    VerificationFailed,
}

impl Expect {
    /// Whether `err` is the expected error.
    pub fn holds(self, err: &CoreError) -> bool {
        match self {
            Expect::BadDocument => matches!(err, CoreError::BadModelDocument { .. }),
            Expect::MissingFile => matches!(err, CoreError::Store(StoreError::MissingFile(_))),
            Expect::MissingDocument => {
                matches!(err, CoreError::Store(StoreError::MissingDocument(_)))
            }
            Expect::TooDeep => matches!(err, CoreError::BaseChainTooDeep { .. }),
            Expect::VerificationFailed => matches!(err, CoreError::VerificationFailed { .. }),
        }
    }
}

/// One case: what it damages, over a fresh store in a directory, and how
/// the recovery of the model it returns must fail.
pub struct Case {
    pub name: &'static str,
    pub setup: fn(&SaveService, &Path) -> SavedModelId,
    pub expect: Expect,
}

/// Every case.
pub const ALL: [&Case; 10] = [
    &WRONG_KIND,
    &UNDECODABLE_BODY,
    &UNKNOWN_ARCHITECTURE,
    &MISSING_WEIGHTS_FILE,
    &DANGLING_BASE,
    &SELF_CYCLE,
    &TWO_CYCLE,
    &DERIVED_WITHOUT_BASE,
    &TAMPERED_ROOT_HASH,
    &FLIPPED_CONTAINER_BYTE,
];

/// An environment document is not a model document.
pub const WRONG_KIND: Case = Case {
    name: "wrong kind",
    setup: |s, _| SavedModelId(s.storage().insert_doc("environment", json!({})).unwrap()),
    expect: Expect::BadDocument,
};

pub const UNDECODABLE_BODY: Case = Case {
    name: "undecodable body",
    setup: |s, _| {
        SavedModelId(s.storage().insert_doc("model_info", json!({"approach": "???"})).unwrap())
    },
    expect: Expect::BadDocument,
};

pub const UNKNOWN_ARCHITECTURE: Case = Case {
    name: "unknown architecture",
    setup: |s, _| {
        let model = Model::new_initialized(ArchId::TinyCnn, 1);
        let id = s.save(SaveRequest::full(&model)).unwrap().id;
        edit(s, &id, |body| body["arch"] = json!("lenet-9000"));
        id
    },
    expect: Expect::BadDocument,
};

pub const MISSING_WEIGHTS_FILE: Case = Case {
    name: "missing weights file",
    setup: |s, _| {
        let model = Model::new_initialized(ArchId::TinyCnn, 2);
        let id = s.save(SaveRequest::full(&model)).unwrap().id;
        let doc = s.storage().get_doc(id.doc_id()).unwrap();
        let weights = doc.body["weights_file"].as_str().unwrap().to_string();
        s.storage().remove_file(&FileId::from_string(weights)).unwrap();
        id
    },
    expect: Expect::MissingFile,
};

/// An update pointing at a base that does not exist.
pub const DANGLING_BASE: Case = Case {
    name: "dangling base",
    setup: |s, _| {
        let [_, _, update] = chain(s, 3);
        edit(s, &update, |body| body["base_model"] = json!("gone-1"));
        update
    },
    expect: Expect::MissingDocument,
};

/// An update whose base is itself: the depth limit is the walk's one guard.
pub const SELF_CYCLE: Case = Case {
    name: "self cycle",
    setup: |s, _| {
        let [_, _, tip] = chain(s, 4);
        edit(s, &tip, |body| body["base_model"] = json!(tip.doc_id().as_str()));
        tip
    },
    expect: Expect::TooDeep,
};

/// Two updates that name each other.
pub const TWO_CYCLE: Case = Case {
    name: "two cycle",
    setup: |s, _| {
        let [_, mid, tip] = chain(s, 4);
        edit(s, &mid, |body| body["base_model"] = json!(tip.doc_id().as_str()));
        tip
    },
    expect: Expect::TooDeep,
};

/// A derived document that names no base is malformed, not a root.
pub const DERIVED_WITHOUT_BASE: Case = Case {
    name: "derived without a base",
    setup: |s, _| {
        let [_, _, update] = chain(s, 6);
        edit(s, &update, |body| body["base_model"] = json!(null));
        update
    },
    expect: Expect::BadDocument,
};

pub const TAMPERED_ROOT_HASH: Case = Case {
    name: "tampered root hash",
    setup: |s, _| {
        let model = Model::new_initialized(ArchId::TinyCnn, 5);
        let id = s.save(SaveRequest::full(&model)).unwrap().id;
        edit(s, &id, |body| body["root_hash"] = json!("ff".repeat(32)));
        id
    },
    expect: Expect::VerificationFailed,
};

/// A provenance recovery checks the dataset digest against the blobs it
/// stored: one flipped blob byte, behind a resealed SHA trailer so the
/// container itself still unpacks, fails the recovery. The replay alone
/// would not notice, because the loader derives pixels from image ids.
pub const FLIPPED_CONTAINER_BYTE: Case = Case {
    name: "flipped container byte",
    setup: |s, dir| {
        let mut model = Model::new_initialized(ArchId::TinyCnn, 9);
        let base = s.save(SaveRequest::full(&model)).unwrap().id;
        let (prov, mut trainer) = super::train_spec(ModelRelation::PartiallyUpdated, 10);
        model.set_classifier_only_trainable();
        trainer.train(&mut model);
        let id = s.save(SaveRequest::provenance(&model, &base, &prov)).unwrap().id;
        assert!(s.recover_report(&id, RecoverOptions::default()).is_ok(), "intact, it recovers");

        let info = s.load_model_info(&id).unwrap();
        let container = info.provenance.unwrap().dataset.container_file.unwrap();
        let path = dir.join("files").join(format!("{container}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        let payload_len = bytes.len() - 32;
        // The payload ends with the last blob's last byte.
        bytes[payload_len - 1] ^= 0x01;
        let mut h = Sha256::new();
        h.update(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&h.finalize().0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(mmlib_data::container::unpack(&bytes).is_ok(), "the resealed container unpacks");
        id
    },
    expect: Expect::VerificationFailed,
};

/// A snapshot and two updates of the classifier on it, from `seed`.
fn chain(s: &SaveService, seed: u64) -> [SavedModelId; 3] {
    let mut model = Model::new_initialized(ArchId::TinyCnn, seed);
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
    [base, mid, tip]
}

/// Rewrites the body of `id`'s document in place.
fn edit(s: &SaveService, id: &SavedModelId, change: impl FnOnce(&mut serde_json::Value)) {
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    change(&mut doc.body);
    s.storage().update_doc(id.doc_id(), doc.body).unwrap();
}
