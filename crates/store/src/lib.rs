//! Storage substrate for the mmlib reproduction.
//!
//! The paper persists two kinds of data (§3.1): *metadata* as JSON documents
//! "in a document database like MongoDB", and *files* (model code,
//! serialized parameters, dataset containers) on a shared file system, with
//! generated identifiers cross-referencing the two. This crate provides both
//! halves as embedded, directory-backed stores plus the accounting the
//! evaluation needs:
//!
//! * [`document`] — JSON documents with generated ids, which reference each
//!   other and files by id (the paper's "recursively load all associated
//!   JSON documents"), and their codec.
//! * [`files`] — opaque blobs with generated ids.
//! * [`storage`] — [`storage::ModelStorage`], the one call surface over a
//!   [`storage::StorageBackend`]; the local backend keeps both halves in
//!   directories written through one staged commit, behind shared byte
//!   accounting, so every save's storage consumption is measured here.
//! * [`fault`] — seeded deterministic fault injection ([`FaultPlan`],
//!   [`FaultInjector`]) driving the crash-consistency test matrix.
//! * [`fsck`] — physical consistency scan of a local root (leftover tmp
//!   files) with quarantine-based repair.
//! * [`schema`] — the document schema (model-info documents, lineage
//!   records, document kinds) and the lineage graph built over it
//!   ([`schema::LineageGraph::read`]). It sits here, below both the model
//!   library and the registry server, so a document and a lineage query
//!   mean the same thing in-process and over the wire.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod atomic;
pub mod document;
pub mod fault;
pub mod files;
pub mod fsck;
pub mod schema;
pub mod storage;

pub use document::{DocId, Document};
pub use fault::{Fault, FaultInjector, FaultPlan};
pub use files::FileId;
pub use storage::{
    batch_ref, register_metrics, BatchId, BatchItem, ModelStorage, StorageBackend, StoreError,
    BATCH_REF_PREFIX,
};
