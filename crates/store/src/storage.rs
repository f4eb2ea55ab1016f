//! The combined model storage: documents + files + byte accounting.
//!
//! [`ModelStorage`] is the one call surface the model library and the
//! registry server use: the per-item methods carry the [`StorageBackend`]
//! names and count one store operation each, and a save is one
//! [`ModelStorage::commit_batch`]. The local backend writes every item, in
//! a batch or alone, through the same staged commit (see `atomic.rs`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mmlib_obs::Recorder;

use crate::atomic::StoreDir;
use crate::document::{DocId, DocStore, Document};
use crate::fault::{FaultInjector, FaultPlan};
use crate::files::FileId;
use crate::schema::{RecoveryReads, SavedModelId};

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Document serialization/deserialization failure.
    Json(serde_json::Error),
    /// A referenced document does not exist.
    MissingDocument(DocId),
    /// A referenced file does not exist.
    MissingFile(FileId),
    /// A document or field had an unexpected shape.
    Malformed(String),
    /// A remote backend could not complete the operation (connection,
    /// protocol, or server-side failure).
    Remote(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io error: {e}"),
            StoreError::Json(e) => write!(f, "document json error: {e}"),
            StoreError::MissingDocument(id) => write!(f, "missing document {id}"),
            StoreError::MissingFile(id) => write!(f, "missing file {id}"),
            StoreError::Malformed(m) => write!(f, "malformed document: {m}"),
            StoreError::Remote(m) => write!(f, "remote storage error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Json(e)
    }
}

/// Counter of bytes written to the store's backing storage.
const STORE_BYTES_WRITTEN_TOTAL: &str = "mmlib_store_bytes_written_total";
/// Counter of bytes read from the store's backing storage.
const STORE_BYTES_READ_TOTAL: &str = "mmlib_store_bytes_read_total";
/// Counter of durability syncs (payload `fdatasync`, directory `fsync`).
const STORE_SYNC_OPS_TOTAL: &str = "mmlib_store_sync_ops_total";
/// Counter of storage operations, labeled `op="..."`.
const STORE_OPS_TOTAL: &str = "mmlib_store_ops_total";

/// The `op` labels [`STORE_OPS_TOTAL`] is counted under.
const STORE_OPS: [&str; 8] = [
    "batch_commit",
    "doc_insert",
    "doc_get",
    "doc_update",
    "doc_remove",
    "file_put",
    "file_get",
    "file_remove",
];

/// Pre-registers every store metric on `recorder`, so expositions list
/// them (with zero counts) before any storage traffic.
pub fn register_metrics(recorder: &Recorder) {
    recorder.counter(STORE_BYTES_WRITTEN_TOTAL, None);
    recorder.counter(STORE_BYTES_READ_TOTAL, None);
    recorder.counter(STORE_SYNC_OPS_TOTAL, None);
    for op in STORE_OPS {
        recorder.counter(STORE_OPS_TOTAL, Some(("op", op)));
    }
}

/// Shared byte counters for a storage backend.
///
/// The paper's *storage consumption* metric is "the amount of storage that
/// every approach consumes to save a given model" excluding its base model
/// (§4.2); callers snapshot [`ModelStorage::bytes_written`] around one save
/// to obtain exactly that. Every update is mirrored into the process-wide
/// [`mmlib_obs::recorder`] (`mmlib_store_bytes_{written,read}_total`), so
/// the exposition shows aggregate storage traffic without extra plumbing.
#[derive(Debug, Default)]
pub struct Accounting {
    pub(crate) written: AtomicU64,
    pub(crate) read: AtomicU64,
    pub(crate) syncs: AtomicU64,
}

impl Accounting {
    pub(crate) fn add_written(&self, n: u64) {
        self.written.fetch_add(n, Ordering::Relaxed);
        mmlib_obs::recorder().inc(STORE_BYTES_WRITTEN_TOTAL, n);
    }

    pub(crate) fn add_read(&self, n: u64) {
        self.read.fetch_add(n, Ordering::Relaxed);
        mmlib_obs::recorder().inc(STORE_BYTES_READ_TOTAL, n);
    }

    /// Records durability sync operations (payload `fdatasync` / directory
    /// `fsync` calls). These, not bytes, are the fixed per-artifact cost the
    /// batched commit path exists to coalesce, so the benchmark gate reads
    /// this counter rather than wall time (which tracks device load).
    pub(crate) fn add_syncs(&self, n: u64) {
        self.syncs.fetch_add(n, Ordering::Relaxed);
        mmlib_obs::recorder().inc(STORE_SYNC_OPS_TOTAL, n);
    }
}

/// Records one storage operation (one of [`STORE_OPS`]) in the global ops
/// counter.
#[inline]
fn count_op(op: &'static str) {
    mmlib_obs::recorder().inc_labeled(STORE_OPS_TOTAL, ("op", op), 1);
}

/// One write in a [`StorageBackend::commit_batch`] call.
///
/// Item order is the visibility order: a crash mid-commit exposes only a
/// prefix of the batch, so callers put referents before the documents that
/// reference them (model-info last), exactly as on the sequential path.
#[derive(Debug, Clone)]
pub enum BatchItem {
    /// A document of `kind` with a JSON body.
    Doc {
        /// Collection-style tag, as for [`StorageBackend::insert_doc`].
        kind: String,
        /// The JSON payload.
        body: serde_json::Value,
    },
    /// A blob.
    File {
        /// The blob payload.
        bytes: Vec<u8>,
    },
}

/// Generated id of a committed [`BatchItem`], parallel to the submitted
/// items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchId {
    /// Id of a committed [`BatchItem::Doc`].
    Doc(DocId),
    /// Id of a committed [`BatchItem::File`].
    File(FileId),
}

/// Prefix of an intra-batch id reference (see [`batch_ref`]).
pub const BATCH_REF_PREFIX: &str = "$batch:";

/// Placeholder string resolving to the generated id of an *earlier* item in
/// the same [`StorageBackend::commit_batch`] call.
///
/// Ids are generated during the commit, but documents that tie a save
/// together (model-info) embed the ids of their referents
/// — which forces them into follow-up writes unless the reference can be
/// expressed symbolically. A body string `"$batch:2"` is replaced with item
/// 2's id before the referencing document is written. Only backward
/// references are allowed: item order is the visibility order of the batch,
/// so a forward reference could become visible before its referent and is
/// rejected as [`StoreError::Malformed`].
pub fn batch_ref(index: usize) -> String {
    format!("{BATCH_REF_PREFIX}{index}")
}

fn batch_id_str(id: &BatchId) -> &str {
    match id {
        BatchId::Doc(d) => d.as_str(),
        BatchId::File(f) => f.as_str(),
    }
}

/// Replaces every `$batch:N` string in `body` with the id of committed item
/// `N`. `ids` holds the items preceding the body's own item, so any
/// in-range index is a legal backward reference and anything else errors.
fn resolve_batch_refs(body: &mut serde_json::Value, ids: &[BatchId]) -> Result<(), StoreError> {
    match body {
        serde_json::Value::String(s) => {
            if let Some(raw) = s.strip_prefix(BATCH_REF_PREFIX) {
                let index: usize = raw.parse().map_err(|_| {
                    StoreError::Malformed(format!("unparseable batch reference {s:?}"))
                })?;
                let id = ids.get(index).ok_or_else(|| {
                    StoreError::Malformed(format!(
                        "batch reference {s:?} does not point at an earlier item \
                         (references must be backward: item order is visibility order)"
                    ))
                })?;
                *s = batch_id_str(id).to_string();
            }
        }
        serde_json::Value::Array(items) => {
            for item in items {
                resolve_batch_refs(item, ids)?;
            }
        }
        serde_json::Value::Object(map) => {
            let keys: Vec<String> = map.keys().cloned().collect();
            for key in keys {
                if let Some(v) = map.get_mut(&key) {
                    resolve_batch_refs(v, ids)?;
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// The document/file operations one storage backend must provide.
///
/// [`ModelStorage`] delegates everything here, so the save/recover stack is
/// agnostic to *where* the bytes live: the default backend writes a local
/// directory (the paper's MongoDB + shared-FS stand-in), while `mmlib-net`
/// implements this trait with a TCP client talking to a registry server.
pub trait StorageBackend: Send + Sync {
    /// Inserts a document of `kind`, returning its generated id.
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError>;

    /// Loads a document by id.
    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError>;

    /// Replaces an existing document's body.
    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError>;

    /// Whether a document exists.
    fn contains_doc(&self, id: &DocId) -> bool;

    /// Deletes a document.
    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError>;

    /// Every stored document id.
    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError>;

    /// Saves a blob, returning its generated id.
    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError>;

    /// Loads a blob by id.
    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError>;

    /// A blob's size in bytes.
    fn file_size(&self, id: &FileId) -> Result<u64, StoreError>;

    /// Whether a blob exists.
    fn contains_file(&self, id: &FileId) -> bool;

    /// Deletes a blob.
    fn remove_file(&self, id: &FileId) -> Result<(), StoreError>;

    /// Every stored blob id (diagnostics/fsck).
    fn file_ids(&self) -> Result<Vec<FileId>, StoreError>;

    /// Total bytes written through this backend so far.
    fn bytes_written(&self) -> u64;

    /// Total bytes read through this backend so far.
    fn bytes_read(&self) -> u64;

    /// Durability sync operations (payload `fdatasync` + directory `fsync`
    /// calls) issued through this backend so far. Backends with no local
    /// durability tail of their own (e.g. remote clients, where syncing is
    /// the server's job) report 0.
    fn sync_ops(&self) -> u64 {
        0
    }

    /// Everything a recovery of `tip` reads, fetched ahead of it in one
    /// exchange with the store: [`crate::schema::recovery_reads`], run
    /// where the data is. `None`, the default, means the backend has no
    /// such exchange and a recovery reads item by item, as it does from a
    /// local directory.
    fn recovery_reads(
        &self,
        _tip: &SavedModelId,
        _limit: usize,
    ) -> Option<Result<RecoveryReads, StoreError>> {
        None
    }

    /// Commits a batch of writes, returning the generated ids in item
    /// order.
    ///
    /// Backends may coalesce the durability tail (the local backend stages
    /// every payload, renames in item order, then fsyncs each distinct
    /// directory once); the atomicity contract is unchanged — a crash
    /// anywhere leaves each destination as either its old or its new
    /// content, with at most temporary files for `fsck` to sweep, and makes
    /// items visible only in item order. Document bodies may reference the
    /// ids of earlier items symbolically (see [`batch_ref`]); every backend
    /// resolves those before the referencing document is written. The
    /// default implementation routes each item through the per-item
    /// methods, so remote and fault-wrapping backends keep their existing
    /// semantics.
    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        let mut ids = Vec::with_capacity(items.len());
        for item in items {
            let id = match item {
                BatchItem::Doc { kind, mut body } => {
                    resolve_batch_refs(&mut body, &ids)?;
                    BatchId::Doc(self.insert_doc(&kind, body)?)
                }
                BatchItem::File { bytes } => BatchId::File(self.put_file(&bytes)?),
            };
            ids.push(id);
        }
        Ok(ids)
    }
}

/// The default backend: a local directory split into `docs/` + `files/`.
/// Every write, a batch's or a single item's, is a stage per item followed
/// by one [`StoreDir::commit`].
struct LocalBackend {
    docs: DocStore,
    files: StoreDir<FileId>,
    accounting: Arc<Accounting>,
}

impl LocalBackend {
    fn open(root: &Path, faults: Option<Arc<FaultInjector>>) -> Result<LocalBackend, StoreError> {
        let accounting = Arc::new(Accounting::default());
        let dir = StoreDir::open(root.join("docs"), Arc::clone(&accounting), faults.clone())?;
        let files = StoreDir::open(root.join("files"), Arc::clone(&accounting), faults)?;
        Ok(LocalBackend { docs: DocStore { dir }, files, accounting })
    }
}

impl StorageBackend for LocalBackend {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        let (id, staged, n) = self.docs.stage(kind, body)?;
        // The stage took this write's one injector operation.
        self.docs.dir.commit(vec![staged], n, None)?;
        Ok(id)
    }

    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.docs.get(id)
    }

    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.docs.update(id, body)
    }

    fn contains_doc(&self, id: &DocId) -> bool {
        self.docs.dir.contains(id)
    }

    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.docs.dir.remove(id)
    }

    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.docs.dir.ids()
    }

    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        let id = self.files.next_id();
        self.files.write(&id, bytes)?;
        Ok(id)
    }

    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.files.read(id)
    }

    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.files.size(id)
    }

    fn contains_file(&self, id: &FileId) -> bool {
        self.files.contains(id)
    }

    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.files.remove(id)
    }

    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.files.ids()
    }

    fn bytes_written(&self) -> u64 {
        self.accounting.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.accounting.read.load(Ordering::Relaxed)
    }

    fn sync_ops(&self) -> u64 {
        self.accounting.syncs.load(Ordering::Relaxed)
    }

    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        // Stage everything (each stage consumes one fault-injector
        // operation), then pay the rename + directory-fsync tail once for
        // the whole batch. A failed stage aborts before any rename, so the
        // committed state is untouched; staged tmp files stay behind for
        // fsck, as a crash would leave them. Staged ids are reserved up
        // front, so a document body may reference an earlier item of its
        // own batch (`$batch:N`).
        let mut staged = Vec::with_capacity(items.len());
        let mut ids = Vec::with_capacity(items.len());
        let mut written = 0;
        for item in items {
            match item {
                BatchItem::Doc { kind, mut body } => {
                    resolve_batch_refs(&mut body, &ids)?;
                    let (id, s, n) = self.docs.stage(&kind, body)?;
                    staged.push(s);
                    ids.push(BatchId::Doc(id));
                    written += n;
                }
                BatchItem::File { bytes } => {
                    let id = self.files.next_id();
                    staged.push(self.files.stage(&id, &bytes)?);
                    ids.push(BatchId::File(id));
                    written += bytes.len() as u64;
                }
            }
        }
        // The commit itself is one more injector operation, so fault plans
        // can target the rename/dir-fsync step specifically. Both halves
        // share one injector when faults are enabled.
        self.files.commit(staged, written, self.files.faults())?;
        Ok(ids)
    }
}

/// One logical storage backend: a document database plus a shared file
/// system, as in the paper's MongoDB + shared-FS deployment.
///
/// Cloning is cheap and shares the underlying backend and accounting (the
/// paper's server and nodes all talk to the same MongoDB instance and
/// shared file system).
#[derive(Clone)]
pub struct ModelStorage {
    backend: Arc<dyn StorageBackend>,
    root: PathBuf,
}

impl ModelStorage {
    /// Opens (or creates) a local directory-backed storage rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<ModelStorage, StoreError> {
        let root = root.as_ref().to_path_buf();
        let backend = Arc::new(LocalBackend::open(&root, None)?);
        Ok(ModelStorage { backend, root })
    }

    /// Opens local storage like [`ModelStorage::open`], but routes every
    /// document/file write through a [`FaultInjector`] executing `plan`.
    /// Writes consume operation indices in issue order, so the plan's op
    /// numbers address "the K-th write of this run" deterministically.
    ///
    /// Returns the injector alongside the storage so tests can inspect how
    /// many faults actually fired.
    pub fn open_with_faults(
        root: impl AsRef<Path>,
        plan: FaultPlan,
    ) -> Result<(ModelStorage, Arc<FaultInjector>), StoreError> {
        let root = root.as_ref().to_path_buf();
        let injector = Arc::new(FaultInjector::new(plan));
        let backend = Arc::new(LocalBackend::open(&root, Some(Arc::clone(&injector)))?);
        Ok((ModelStorage { backend, root }, injector))
    }

    /// Wraps a custom backend (e.g. a remote registry client). `descriptor`
    /// labels the storage location in diagnostics, like the root directory
    /// does for local storage.
    pub fn from_backend(
        backend: Arc<dyn StorageBackend>,
        descriptor: impl Into<PathBuf>,
    ) -> ModelStorage {
        ModelStorage { backend, root: descriptor.into() }
    }

    /// The storage root directory (or descriptor for non-local backends).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The underlying backend handle (for wrapping, e.g. by a counting
    /// backend in tests).
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }

    /// Total bytes written through this storage so far.
    pub fn bytes_written(&self) -> u64 {
        self.backend.bytes_written()
    }

    /// Total bytes read through this storage so far.
    pub fn bytes_read(&self) -> u64 {
        self.backend.bytes_read()
    }

    /// Durability sync operations (payload `fdatasync` + directory `fsync`
    /// calls) issued through this storage so far. The save benchmark
    /// snapshots this around a flow: sync count, unlike wall time, is a
    /// device-independent measure of the write path's durability tail.
    pub fn sync_ops(&self) -> u64 {
        self.backend.sync_ops()
    }

    /// Inserts a document of `kind` with a JSON `body`, as a one-item
    /// write.
    pub fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        count_op("doc_insert");
        self.backend.insert_doc(kind, body)
    }

    /// Loads a document by id.
    pub fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        count_op("doc_get");
        self.backend.get_doc(id)
    }

    /// Replaces an existing document's body.
    pub fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        count_op("doc_update");
        self.backend.update_doc(id, body)
    }

    /// Whether a document exists.
    pub fn contains_doc(&self, id: &DocId) -> bool {
        self.backend.contains_doc(id)
    }

    /// Deletes a document.
    pub fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        count_op("doc_remove");
        self.backend.remove_doc(id)
    }

    /// Every stored document id, sorted.
    pub fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.backend.doc_ids()
    }

    /// Saves a blob as a one-item write, returning its generated id.
    pub fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        count_op("file_put");
        self.backend.put_file(bytes)
    }

    /// Loads a blob by id.
    pub fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        count_op("file_get");
        self.backend.get_file(id)
    }

    /// A blob's size in bytes, without reading it.
    pub fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.backend.file_size(id)
    }

    /// Whether a blob exists.
    pub fn contains_file(&self, id: &FileId) -> bool {
        self.backend.contains_file(id)
    }

    /// Deletes a blob.
    pub fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        count_op("file_remove");
        self.backend.remove_file(id)
    }

    /// Every stored blob id, sorted.
    pub fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.backend.file_ids()
    }

    /// Everything a recovery of `tip` reads, when the backend can fetch it
    /// in one exchange (see [`StorageBackend::recovery_reads`]).
    pub fn recovery_reads(
        &self,
        tip: &SavedModelId,
        limit: usize,
    ) -> Option<Result<RecoveryReads, StoreError>> {
        self.backend.recovery_reads(tip, limit)
    }

    /// Commits a batch of document/file writes, coalescing the durability
    /// tail where the backend supports it (see
    /// [`StorageBackend::commit_batch`] for the ordering contract).
    pub fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        count_op("batch_commit");
        self.backend.commit_batch(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn bytes_written_accounts_docs_and_files() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        assert_eq!(storage.bytes_written(), 0);
        storage.insert_doc("model_info", json!({"a": 1})).unwrap();
        let after_doc = storage.bytes_written();
        assert!(after_doc > 0);
        storage.put_file(&[0u8; 1000]).unwrap();
        assert!(storage.bytes_written() >= after_doc + 1000);
    }

    #[test]
    fn clones_share_accounting() {
        let dir = tempfile::tempdir().unwrap();
        let a = ModelStorage::open(dir.path()).unwrap();
        let b = a.clone();
        b.put_file(&[1u8; 10]).unwrap();
        assert!(a.bytes_written() >= 10);
    }

    #[test]
    fn doc_and_file_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        let id = storage.insert_doc("k", json!({"x": [1, 2, 3]})).unwrap();
        let doc = storage.get_doc(&id).unwrap();
        assert_eq!(doc.kind, "k");
        assert_eq!(doc.body["x"][2], 3);

        let fid = storage.put_file(b"payload").unwrap();
        assert_eq!(storage.get_file(&fid).unwrap(), b"payload");
        assert!(storage.bytes_read() >= 7);
    }

    #[test]
    fn reopening_sees_existing_data() {
        let dir = tempfile::tempdir().unwrap();
        let id;
        let fid;
        {
            let storage = ModelStorage::open(dir.path()).unwrap();
            id = storage.insert_doc("k", json!({"v": true})).unwrap();
            fid = storage.put_file(b"persisted").unwrap();
        }
        let reopened = ModelStorage::open(dir.path()).unwrap();
        assert_eq!(reopened.get_doc(&id).unwrap().body["v"], true);
        assert_eq!(reopened.get_file(&fid).unwrap(), b"persisted");
    }

    #[test]
    fn commit_batch_returns_ids_in_item_order_and_accounts_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        let before = storage.bytes_written();
        let ids = storage
            .commit_batch(vec![
                BatchItem::Doc { kind: "env".into(), body: json!({"k": 1}) },
                BatchItem::File { bytes: vec![7u8; 500] },
                BatchItem::Doc { kind: "model_info".into(), body: json!({"k": 2}) },
            ])
            .unwrap();
        assert_eq!(ids.len(), 3);
        match (&ids[0], &ids[1], &ids[2]) {
            (BatchId::Doc(a), BatchId::File(f), BatchId::Doc(b)) => {
                assert_eq!(storage.get_doc(a).unwrap().kind, "env");
                assert_eq!(storage.get_file(f).unwrap(), vec![7u8; 500]);
                assert_eq!(storage.get_doc(b).unwrap().kind, "model_info");
            }
            other => panic!("ids out of order: {other:?}"),
        }
        assert!(storage.bytes_written() >= before + 500);
        // No tmp leftovers after a clean batch.
        for sub in ["docs", "files"] {
            for entry in std::fs::read_dir(dir.path().join(sub)).unwrap() {
                let name = entry.unwrap().file_name();
                assert!(!name.to_str().unwrap().ends_with(".tmp"), "leftover {name:?}");
            }
        }
    }

    #[test]
    fn faulted_batch_commits_nothing_or_a_prefix() {
        use crate::fault::{Fault, FaultPlan};
        let dir = tempfile::tempdir().unwrap();
        // Fault op 3 is the commit (ops 0-2 are the three stages): torn at
        // cut 1 → only the first item becomes visible.
        let plan = FaultPlan::new(0).with(3, Fault::TornWrite { after_bytes: 1 });
        let (storage, _inj) = ModelStorage::open_with_faults(dir.path(), plan).unwrap();
        let err = storage
            .commit_batch(vec![
                BatchItem::Doc { kind: "a".into(), body: json!({}) },
                BatchItem::Doc { kind: "b".into(), body: json!({}) },
                BatchItem::File { bytes: vec![1, 2, 3] },
            ])
            .unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(storage.doc_ids().unwrap().len(), 1, "prefix visible in item order");
        assert_eq!(storage.file_ids().unwrap().len(), 0);
        assert_eq!(storage.bytes_written(), 0, "interrupted batches account nothing");
    }

    #[test]
    fn storage_exposes_the_full_backend_surface() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        let id = storage.insert_doc("k", json!({"n": 1})).unwrap();
        assert!(storage.contains_doc(&id));
        storage.update_doc(&id, json!({"n": 2})).unwrap();
        assert_eq!(storage.get_doc(&id).unwrap().body["n"], 2);
        assert_eq!(storage.doc_ids().unwrap(), vec![id.clone()]);
        storage.remove_doc(&id).unwrap();
        assert!(!storage.contains_doc(&id));

        let fid = storage.put_file(b"abc").unwrap();
        assert!(storage.contains_file(&fid));
        assert_eq!(storage.file_size(&fid).unwrap(), 3);
        storage.remove_file(&fid).unwrap();
        assert!(!storage.contains_file(&fid));
    }

    #[test]
    fn a_single_write_syncs_its_payload_and_its_directory() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        let id = storage.insert_doc("k", json!({})).unwrap();
        storage.update_doc(&id, json!({"v": 1})).unwrap();
        storage.put_file(b"x").unwrap();
        assert_eq!(storage.sync_ops(), 6);
        storage
            .commit_batch(vec![
                BatchItem::File { bytes: vec![1] },
                BatchItem::Doc { kind: "k".into(), body: json!({"f": batch_ref(0)}) },
            ])
            .unwrap();
        assert_eq!(storage.sync_ops(), 6 + 2 + 2, "a stage per item, a sync per directory");
    }
}
