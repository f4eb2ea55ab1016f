//! The save/recover service: shared plumbing and the recovery chain walk.
//!
//! One [`SaveService`] exposes all three approaches (the approach used is
//! recorded per model document, so a store may mix them) and one
//! [`SaveService::recover_report`] entry point that resolves base-model
//! chains — the paper's recursive recovery of §3.2/§3.3. The chain is
//! listed by [`SaveService::recovery_chain`] over `mmlib_store::schema`'s
//! one walk (its rule is [`ModelInfoDoc::recovery_parent`], its one bound
//! [`RecoverOptions::max_chain_depth`]), and rebuilt node by node with
//! [`SaveService::recover_step`]; `mmlib-lineage`'s compaction and family
//! recovery are built from the same two. A single-tip recovery's fold skips
//! the parameter updates whose layers are all settled by later updates
//! (`schema::links_to_rebuild`): their bytes cannot reach the result.
//! Compaction and family recovery rebuild every node, because they keep
//! every node's model. When the store can fetch everything a recovery reads
//! in one exchange (`StorageBackend::recovery_reads`, one `ChainGet` to a
//! registry), the recovery runs over a [`ReadAhead`] view of what it
//! fetched.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mmlib_model::{ArchId, Model};
use mmlib_obs::{PhaseBreakdown, PhaseClock, Recorder};
use mmlib_store::schema::{self, LayerHashes, RecoveryReads, WalkEnd};
use mmlib_store::{
    BatchId, BatchItem, DocId, Document, FileId, ModelStorage, StorageBackend, StoreError,
};

use crate::error::{to_json_value, CoreError};
use crate::hash_cache::HashCache;
use crate::merkle::MerkleTree;
use crate::meta::{kinds, ApproachKind, EnvironmentInfo, ModelInfoDoc, ModelRelation, SavedModelId};

/// Appends `item` to a save's `batch`, returning the `$batch:N` reference to
/// it.
pub(crate) fn push(batch: &mut Vec<BatchItem>, item: BatchItem) -> String {
    batch.push(item);
    mmlib_store::batch_ref(batch.len() - 1)
}

/// Options controlling a recovery.
#[derive(Debug, Clone, Copy)]
pub struct RecoverOptions {
    /// Verify the current environment against the saved one (the paper's
    /// >1 s "check env" step; §4.4 disables it in one experiment).
    pub check_env: bool,
    /// Verify the recovered parameters against the stored Merkle root.
    pub verify: bool,
    /// Maximum base-chain depth (cycle/corruption guard).
    pub max_chain_depth: usize,
}

impl Default for RecoverOptions {
    fn default() -> Self {
        RecoverOptions { check_env: true, verify: true, max_chain_depth: 1024 }
    }
}

impl RecoverOptions {
    /// The defaults: environment check on, verification on, depth 1024.
    pub fn new() -> RecoverOptions {
        RecoverOptions::default()
    }

    /// Enables/disables the environment check.
    pub fn check_env(mut self, on: bool) -> RecoverOptions {
        self.check_env = on;
        self
    }

    /// Enables/disables Merkle-root verification of the result.
    pub fn verify(mut self, on: bool) -> RecoverOptions {
        self.verify = on;
        self
    }

    /// Sets the maximum base-chain depth.
    pub fn max_chain_depth(mut self, depth: usize) -> RecoverOptions {
        self.max_chain_depth = depth;
        self
    }
}

/// The model management service: save with any approach, recover uniformly.
pub struct SaveService {
    storage: ModelStorage,
    environment: EnvironmentInfo,
    obs: Option<Arc<Recorder>>,
    hash_cache: HashCache,
}

impl SaveService {
    /// Creates a service over a storage backend, capturing the current
    /// environment once. Metrics go to the process-wide
    /// [`mmlib_obs::recorder`] unless overridden with
    /// [`SaveService::with_recorder`].
    pub fn new(storage: ModelStorage) -> SaveService {
        SaveService {
            storage,
            environment: EnvironmentInfo::capture(),
            obs: None,
            hash_cache: HashCache::new(),
        }
    }

    /// Routes this service's metrics to `recorder` instead of the global
    /// one (isolated accounting for tests and benches).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> SaveService {
        self.obs = Some(recorder);
        self
    }

    /// The recorder this service reports to.
    pub(crate) fn obs(&self) -> &Recorder {
        self.obs.as_deref().unwrap_or_else(|| mmlib_obs::recorder())
    }

    /// The recorder this service reports to (the global one unless
    /// overridden with [`SaveService::with_recorder`]). Layers built on top
    /// of the service — `mmlib-lineage` — report through the same recorder
    /// so one exposition covers the whole stack.
    pub fn recorder(&self) -> &Recorder {
        self.obs()
    }

    /// The underlying storage (metrics: `bytes_written`).
    pub fn storage(&self) -> &ModelStorage {
        &self.storage
    }

    /// The save-path hash cache (fingerprint-gated incremental Merkle).
    pub fn hash_cache(&self) -> &HashCache {
        &self.hash_cache
    }

    /// Merkle tree of `model`'s current parameters via the service's hash
    /// cache — byte-identical to [`MerkleTree::from_model`], incremental
    /// when the previous save of this service had the same entry structure.
    pub(crate) fn save_tree(&self, model: &Model) -> MerkleTree {
        self.hash_cache.tree_for_model(model, self.obs())
    }

    /// The environment captured at service construction.
    pub fn environment(&self) -> &EnvironmentInfo {
        &self.environment
    }

    // ---- shared save plumbing -------------------------------------------

    /// The model-info document describing a save: `model`, saved as
    /// `approach` on `base` in this service's environment, with the leaves
    /// and the root of `tree`. The caller sets the fields its approach
    /// stores and appends the document to its batch last
    /// ([`SaveService::model_info_item`]).
    pub(crate) fn describe(
        &self,
        approach: ApproachKind,
        model: &Model,
        relation: ModelRelation,
        base: Option<&SavedModelId>,
        tree: &MerkleTree,
    ) -> Result<ModelInfoDoc, CoreError> {
        let layer_hashes = LayerHashes::new(tree.leaves())
            .ok_or_else(|| CoreError::Internal("a tree without leaves".into()))?;
        Ok(ModelInfoDoc::new(
            approach,
            model.arch.name(),
            relation,
            base,
            self.environment.clone(),
            layer_hashes,
            tree.root().to_hex(),
        ))
    }

    /// The model-info document as a batch item. `info`'s referent fields
    /// hold [`mmlib_store::batch_ref`] placeholders for ids generated by the
    /// same batch; keeping model-info in the batch (ordered after its
    /// referents) preserves the sequential path's crash ordering while the
    /// whole save pays a single durability tail.
    pub(crate) fn model_info_item(&self, info: &ModelInfoDoc) -> Result<BatchItem, CoreError> {
        Ok(BatchItem::Doc {
            kind: kinds::MODEL_INFO.to_string(),
            body: to_json_value("ModelInfoDoc", info)?,
        })
    }

    /// Commits a save's `batch`, whose last item is its model-info
    /// document, in one `commit_batch` (the `write` phase), and returns the
    /// saved model's id.
    pub(crate) fn commit(
        &self,
        batch: Vec<BatchItem>,
        clock: &mut PhaseClock<'_>,
    ) -> Result<SavedModelId, CoreError> {
        let ids = clock.time("write", || self.storage.commit_batch(batch))?;
        match ids.into_iter().last() {
            Some(BatchId::Doc(d)) => Ok(SavedModelId(d)),
            other => Err(CoreError::Store(StoreError::Malformed(format!(
                "batch returned {other:?} where a document id was expected"
            )))),
        }
    }

    /// Loads and decodes a model-info document.
    pub fn load_model_info(&self, id: &SavedModelId) -> Result<ModelInfoDoc, CoreError> {
        let doc = self.storage.get_doc(id.doc_id())?;
        schema::model_info(doc)
            .map_err(|bad| CoreError::BadModelDocument { id: id.clone(), reason: bad.to_string() })
    }

    /// Rewrites a saved model's model-info document in place.
    pub fn update_model_info(&self, id: &SavedModelId, info: &ModelInfoDoc) -> Result<(), CoreError> {
        let body = to_json_value("ModelInfoDoc", info)?;
        Ok(self.storage.update_doc(id.doc_id(), body)?)
    }

    /// The Merkle tree of saved model `id`, folded from the leaves its
    /// model-info document `info` holds, once they are checked to fold to
    /// its recorded `root_hash`: the document stores only leaves, so a
    /// changed leaf shows only against that root. Reads nothing. The one
    /// place stored leaves become a tree; no chain walk calls it.
    pub fn load_layer_hashes(info: &ModelInfoDoc, id: &SavedModelId) -> Result<MerkleTree, CoreError> {
        let leaves = info.layer_hashes.leaves().map(|(p, d)| (p.to_string(), *d)).collect();
        let tree = MerkleTree::from_leaves(leaves);
        if tree.root().to_hex() == info.root_hash {
            return Ok(tree);
        }
        let reason = "layer hashes do not fold to the recorded root hash".into();
        Err(CoreError::BadModelDocument { id: id.clone(), reason })
    }

    /// Decodes the architecture recorded in a model document.
    pub(crate) fn arch_of(&self, info: &ModelInfoDoc, id: &SavedModelId) -> Result<ArchId, CoreError> {
        ArchId::from_name(&info.arch).ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: format!("unknown architecture {:?}", info.arch),
        })
    }

    /// Reads a stored file by its string id.
    pub(crate) fn read_file(&self, id: &str) -> Result<Vec<u8>, CoreError> {
        Ok(self.storage.get_file(&FileId::from_string(id.to_string()))?)
    }

    // ---- environment check ----------------------------------------------

    /// Checks the environment a model was saved in against the current
    /// environment, mirroring the paper's recover-time "check env" step.
    pub(crate) fn check_environment(&self, info: &ModelInfoDoc) -> Result<(), CoreError> {
        let mismatches = info.environment.mismatches_against(&self.environment);
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(CoreError::EnvironmentMismatch { mismatches })
        }
    }

    // ---- recovery dispatch ------------------------------------------------

    /// Runs `f`, adding its wall time to `phase` of `phases`. Recovery steps
    /// accumulate here rather than in the recovery's own [`PhaseClock`]
    /// because a chain hits each phase once per node, while the phase
    /// histogram takes one observation per phase per recovery.
    pub(crate) fn timed<T>(
        &self,
        phases: &mut PhaseBreakdown,
        phase: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let stopwatch = PhaseClock::new(self.obs(), crate::report::RECOVER_PHASE, "phase");
        let out = f();
        phases.add(phase, stopwatch.elapsed());
        out
    }

    /// The recovery chain of `tip`, tip first: each model with its decoded
    /// model-info document, following [`ModelInfoDoc::recovery_parent`] down
    /// to the first snapshot — or ending before the first id `have`
    /// accepts, for a caller that already holds that model. Only model-info
    /// documents are read, each once.
    ///
    /// The walk is [`schema::walk_chain`], the only loop that follows base
    /// references through a store; this turns an abnormal end into its
    /// error. `limit` is the walk's only guard: a chain with more than
    /// `limit` bases (a cycle, or corruption) is
    /// [`CoreError::BaseChainTooDeep`] after `limit + 1` reads.
    /// [`SaveService::recover_report`] passes
    /// [`RecoverOptions::max_chain_depth`]; everything else passes that
    /// option's default.
    pub fn recovery_chain(
        &self,
        tip: &SavedModelId,
        limit: usize,
        have: impl Fn(&SavedModelId) -> bool,
    ) -> Result<Vec<(SavedModelId, ModelInfoDoc)>, CoreError> {
        let walk = schema::walk_chain(|id| self.storage.get_doc(id), tip, limit, have);
        match walk.end {
            WalkEnd::Complete => Ok(walk.links),
            WalkEnd::Limit(id) => Err(CoreError::BaseChainTooDeep { id, limit }),
            WalkEnd::Unreadable(_, e) => Err(CoreError::Store(e)),
            WalkEnd::Bad(id, bad) => {
                Err(CoreError::BadModelDocument { id, reason: bad.to_string() })
            }
            WalkEnd::NoBase(id, approach) => Err(CoreError::BadModelDocument {
                id,
                reason: format!("{approach} document lacks a base model"),
            }),
        }
    }

    /// This service reading its store through a [`ReadAhead`] view of
    /// `reads`, with the same environment and recorder.
    pub(crate) fn reading_ahead(&self, reads: RecoveryReads) -> SaveService {
        let view = ReadAhead::new(reads, self.storage.backend());
        SaveService {
            storage: ModelStorage::from_backend(Arc::new(view), self.storage.root()),
            environment: self.environment.clone(),
            obs: self.obs.clone(),
            hash_cache: HashCache::new(),
        }
    }

    /// Recovers exactly one saved model from its already-decoded document
    /// (as [`SaveService::recovery_chain`] returns it) and its recovery base
    /// already in memory: snapshots ignore `base`, parameter updates and
    /// provenance saves apply themselves onto it. The step's `fetch` and
    /// `rebuild` time is added to `phases`.
    ///
    /// This is the building block behind [`SaveService::recover_report`]
    /// and behind compaction and batch family recovery in `mmlib-lineage`,
    /// which keep rebuilt models in memory so each chain node is fetched
    /// and rebuilt exactly once. The caller is responsible for passing the
    /// model `info.recovery_parent()` names; the result is **not** verified
    /// — check it with [`crate::verify::verify_against_root`] against
    /// `info.root_hash` when bit-exactness matters.
    pub fn recover_step(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        base: Option<Model>,
        phases: &mut PhaseBreakdown,
    ) -> Result<Model, CoreError> {
        let need_base = |base: Option<Model>| {
            base.ok_or_else(|| CoreError::BadModelDocument {
                id: id.clone(),
                reason: "a derived save needs its recovered base model".into(),
            })
        };
        match info.approach {
            ApproachKind::Baseline => self.recover_full(info, id, phases),
            ApproachKind::ParamUpdate => self.apply_update_onto(info, id, need_base(base)?, phases),
            ApproachKind::Provenance => self.replay_onto(info, id, need_base(base)?, phases),
        }
    }
}

/// A read-ahead view of a store for one recovery. Each document of a
/// [`RecoveryReads`] is handed to every read of it (a cyclic chain's walk
/// reads the same documents until its depth guard stops it), and each file
/// to the first read of it, which frees its bytes. Every other call goes
/// to the store. So a recovery over the view makes the reads a recovery
/// over the store makes, and meets every failure (a missing base, a bad
/// document, the depth guard, a failed verification) at the same read.
struct ReadAhead {
    docs: BTreeMap<DocId, Document>,
    files: Mutex<BTreeMap<FileId, Vec<u8>>>,
    store: Arc<dyn StorageBackend>,
}

impl ReadAhead {
    fn new(reads: RecoveryReads, store: Arc<dyn StorageBackend>) -> ReadAhead {
        let docs = reads.docs.into_iter().map(|doc| (doc.id.clone(), doc)).collect();
        ReadAhead { docs, files: Mutex::new(reads.files.into_iter().collect()), store }
    }

    /// Takes file `id` out of the view. A removal leaves the map whole, so
    /// a poisoned lock is still safe to use.
    fn take_file(&self, id: &FileId) -> Option<Vec<u8>> {
        self.files.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(id)
    }
}

impl StorageBackend for ReadAhead {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        self.store.insert_doc(kind, body)
    }

    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.docs.get(id).cloned().map_or_else(|| self.store.get_doc(id), Ok)
    }

    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.store.update_doc(id, body)
    }

    fn contains_doc(&self, id: &DocId) -> bool {
        self.store.contains_doc(id)
    }

    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.store.remove_doc(id)
    }

    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.store.doc_ids()
    }

    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.store.put_file(bytes)
    }

    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.take_file(id).map_or_else(|| self.store.get_file(id), Ok)
    }

    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.store.file_size(id)
    }

    fn contains_file(&self, id: &FileId) -> bool {
        self.store.contains_file(id)
    }

    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.store.remove_file(id)
    }

    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.store.file_ids()
    }

    fn bytes_written(&self) -> u64 {
        self.store.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.store.bytes_read()
    }

    fn sync_ops(&self) -> u64 {
        self.store.sync_ops()
    }

    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        self.store.commit_batch(items)
    }
}
