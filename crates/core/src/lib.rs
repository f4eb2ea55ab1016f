//! # mmlib-core — the model management library
//!
//! Rust reproduction of the paper's primary contribution: three approaches
//! for saving and recovering *exact* deep-learning model representations in
//! a distributed environment, plus the probing tool that verifies model
//! reproducibility.
//!
//! ## The three approaches (paper §3)
//!
//! * **Baseline (BA)** — [`baseline`]: each model is saved as a complete,
//!   independent snapshot: metadata documents, architecture code +
//!   environment, and the full serialized state dict.
//! * **Parameter update (PUA)** — [`param_update`]: a derived model is saved
//!   as a reference to its base plus only the layers whose parameters
//!   changed, detected by comparing per-layer hashes organized in a
//!   [`merkle`] tree. Recovery is recursive: recover the base, then merge
//!   the update.
//! * **Model provenance (MPA)** — [`provenance`]: a derived model is saved
//!   as its *provenance* — training code/configuration (wrapped restorable
//!   objects, [`wrapper`]), the training dataset, and the base reference.
//!   Recovery replays the training deterministically.
//!
//! Every save records a detailed capture of its environment
//! ([`EnvironmentInfo`]) in its model-info document, which a recovery
//! checks against the current one. All three approaches share one storage
//! layout ([`meta`], re-exporting the document
//! schema `mmlib_store::schema` defines below both this library and the
//! registry server) over `mmlib-store`'s document + file stores, and one
//! [`recovery`] service: one rule for what
//! a model is rebuilt on ([`meta::ModelInfoDoc::recovery_parent`]), one walk
//! that follows it through the store ([`SaveService::recovery_chain`]), and
//! one step that dispatches on the saved approach per model. Every save records a
//! Merkle root over the model's layer hashes, so every recovery can verify
//! bit-exactness ([`verify`]).
//!
//! ## Quick start
//!
//! ```
//! use mmlib_core::{RecoverOptions, SaveRequest, SaveService};
//! use mmlib_model::{ArchId, Model};
//! use mmlib_store::ModelStorage;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let storage = ModelStorage::open(dir.path()).unwrap();
//! let svc = SaveService::new(storage);
//!
//! let model = Model::new_initialized(ArchId::ResNet18, 42);
//! let saved = svc.save(SaveRequest::full(&model)).unwrap();
//! let recovered = svc.recover_report(&saved.id, RecoverOptions::default()).unwrap();
//! assert!(recovered.model.models_equal(&model));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod adaptive;
mod assemble;
pub mod baseline;
pub mod gc;
pub mod error;
pub mod fsck;
pub mod hash_cache;
pub mod merkle;
pub mod meta;
pub mod param_update;
pub mod probe;
pub mod provenance;
pub mod recovery;
pub mod report;
pub mod verify;
pub mod wrapper;

pub use error::CoreError;
pub use fsck::{FsckIssue, FsckOptions, FsckReport};
pub use merkle::MerkleTree;
pub use meta::{ApproachKind, EnvironmentInfo, LineageRecordDoc, ModelRelation, SavedModelId};
pub use probe::{ProbeRecord, ProbeReport};
pub use provenance::TrainProvenance;
pub use recovery::{RecoverOptions, SaveService};
pub use report::{
    register_metrics, RecoverReport, SaveReport, SaveRequest, VerifyOutcome, RECOVER_PHASES,
    SAVE_PHASES,
};
