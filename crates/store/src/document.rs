//! JSON document store — the MongoDB analog.
//!
//! The paper (§3.1) saves model metadata as JSON documents "identified by a
//! generated identifier" and organized hierarchically: documents reference
//! other documents (and files) by id. This store persists one pretty-printed
//! JSON file per document under `docs/` and supports the recursive
//! resolution the recovery path performs.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::atomic::{atomic_write, stage_write, StagedWrite};
use crate::fault::FaultInjector;
use crate::storage::{Accounting, StoreError};

/// Generated identifier of a stored document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(String);

impl DocId {
    /// Wraps a raw id string (for ids read back out of document bodies).
    pub fn from_string(s: String) -> DocId {
        DocId(s)
    }

    /// The raw id string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A stored document: generated id, a `kind` tag, and a JSON body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    /// Generated identifier.
    pub id: DocId,
    /// Collection-style tag (`"model_info"`, `"environment"`, ...).
    pub kind: String,
    /// Arbitrary JSON payload; references to other documents/files are
    /// stored as their id strings inside this body.
    pub body: serde_json::Value,
}

/// Directory-backed JSON document store.
#[derive(Clone)]
pub struct DocStore {
    dir: PathBuf,
    counter: Arc<AtomicU64>,
    nonce: u64,
    accounting: Arc<Accounting>,
    faults: Option<Arc<FaultInjector>>,
}

impl DocStore {
    /// Opens (or creates) a document store in `dir`.
    pub(crate) fn open(dir: PathBuf, accounting: Arc<Accounting>) -> Result<DocStore, StoreError> {
        std::fs::create_dir_all(&dir)?;
        // Continue id generation past any existing documents.
        let mut max_seq = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) {
                if let Some(seq) = stem.split('-').nth(1).and_then(|s| u64::from_str_radix(s, 16).ok()) {
                    max_seq = max_seq.max(seq);
                }
            }
        }
        // The nonce distinguishes writers sharing a directory; it only
        // needs uniqueness (across processes and across handles), not
        // secrecy.
        let nonce = crate::atomic::writer_nonce();
        Ok(DocStore {
            dir,
            counter: Arc::new(AtomicU64::new(max_seq + 1)),
            nonce,
            accounting,
            faults: None,
        })
    }

    /// Routes every subsequent write through `injector` (fault injection).
    pub(crate) fn set_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    fn path_of(&self, id: &DocId) -> PathBuf {
        self.dir.join(format!("{}.json", id.as_str()))
    }

    fn next_id(&self) -> DocId {
        // Uniqueness fallback: two writers can race to the same id when
        // their nonces collide (e.g. a handle reopened from a stale scan),
        // so skip ids whose file already exists instead of overwriting.
        loop {
            let seq = self.counter.fetch_add(1, Ordering::Relaxed);
            let candidate = DocId(format!("{:08x}-{:x}", self.nonce & 0xffff_ffff, seq));
            if !self.path_of(&candidate).exists() {
                break candidate;
            }
        }
    }

    /// Inserts a document of `kind`, returning its generated id.
    pub fn insert(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        let id = self.next_id();
        let doc = Document { id: id.clone(), kind: kind.to_string(), body };
        let bytes = serde_json::to_vec_pretty(&doc)?;
        atomic_write(&self.path_of(&id), &bytes, self.faults.as_deref())?;
        self.accounting.add_written(bytes.len() as u64);
        self.accounting.add_syncs(2); // payload fdatasync + directory fsync
        Ok(id)
    }

    /// Stages a document for a batch commit: durable under a temporary
    /// name, invisible until [`crate::atomic::commit_staged`] renames it.
    /// Returns the reserved id, the staged write, and the byte count to
    /// account for once the batch commits.
    pub(crate) fn stage(
        &self,
        kind: &str,
        body: serde_json::Value,
    ) -> Result<(DocId, StagedWrite, u64), StoreError> {
        let id = self.next_id();
        let doc = Document { id: id.clone(), kind: kind.to_string(), body };
        let bytes = serde_json::to_vec_pretty(&doc)?;
        let staged = stage_write(&self.path_of(&id), &bytes, self.faults.as_deref())?;
        self.accounting.add_syncs(1); // payload fdatasync; the commit fsyncs dirs
        Ok((id, staged, bytes.len() as u64))
    }

    pub(crate) fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Loads a document by id. This is where document integrity is
    /// checked, once for every reader: a file that does not parse is
    /// [`StoreError::Json`], one whose embedded id is not its filename's is
    /// [`StoreError::Malformed`].
    pub fn get(&self, id: &DocId) -> Result<Document, StoreError> {
        let path = self.path_of(id);
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingDocument(id.clone())
            } else {
                StoreError::Io(e)
            }
        })?;
        self.accounting.add_read(bytes.len() as u64);
        let doc: Document = serde_json::from_slice(&bytes)?;
        if doc.id != *id {
            return Err(StoreError::Malformed(format!(
                "embedded id {:?} does not match filename {id}",
                doc.id.as_str()
            )));
        }
        Ok(doc)
    }

    /// Overwrites an existing document's body (used by append-style indices).
    pub fn update(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        let mut doc = self.get(id)?;
        doc.body = body;
        let bytes = serde_json::to_vec_pretty(&doc)?;
        atomic_write(&self.path_of(id), &bytes, self.faults.as_deref())?;
        self.accounting.add_written(bytes.len() as u64);
        self.accounting.add_syncs(2);
        Ok(())
    }

    /// True if a document with this id exists.
    pub fn contains(&self, id: &DocId) -> bool {
        self.path_of(id).exists()
    }

    /// Removes a document (used by deletion and garbage collection).
    pub fn remove(&self, id: &DocId) -> Result<(), StoreError> {
        std::fs::remove_file(self.path_of(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingDocument(id.clone())
            } else {
                StoreError::Io(e)
            }
        })
    }

    /// Ids of all stored documents (diagnostics/tests).
    pub fn ids(&self) -> Result<Vec<DocId>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) {
                out.push(DocId(stem.to_string()));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn store(dir: &std::path::Path) -> DocStore {
        DocStore::open(dir.join("docs"), Arc::new(Accounting::default())).unwrap()
    }

    #[test]
    fn insert_get_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let id = s.insert("model_info", json!({"arch": "resnet18", "base": null})).unwrap();
        let doc = s.get(&id).unwrap();
        assert_eq!(doc.id, id);
        assert_eq!(doc.kind, "model_info");
        assert_eq!(doc.body["arch"], "resnet18");
    }

    #[test]
    fn ids_are_unique() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(s.insert("k", json!({})).unwrap()));
        }
    }

    #[test]
    fn missing_document_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let err = s.get(&DocId::from_string("deadbeef-1".into())).unwrap_err();
        assert!(matches!(err, StoreError::MissingDocument(_)));
    }

    #[test]
    fn update_replaces_body() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let id = s.insert("k", json!({"v": 1})).unwrap();
        s.update(&id, json!({"v": 2})).unwrap();
        assert_eq!(s.get(&id).unwrap().body["v"], 2);
    }

    #[test]
    fn reopen_continues_id_sequence() {
        let dir = tempfile::tempdir().unwrap();
        let first = {
            let s = store(dir.path());
            s.insert("k", json!({})).unwrap()
        };
        let s2 = store(dir.path());
        let second = s2.insert("k", json!({})).unwrap();
        assert_ne!(first, second);
        assert!(s2.contains(&first));
        assert_eq!(s2.ids().unwrap().len(), 2);
    }

    #[test]
    fn colliding_nonces_never_overwrite_documents() {
        // Regression: two handles whose nonces collide (and whose counters
        // restarted at the same point, as after a stale reopen scan) used to
        // silently overwrite each other's documents. The exists-check
        // fallback must skip taken ids.
        let dir = tempfile::tempdir().unwrap();
        let mut a = store(dir.path());
        let mut b = store(dir.path());
        a.nonce = 0xdead_beef;
        b.nonce = 0xdead_beef;
        a.counter = Arc::new(AtomicU64::new(1));
        b.counter = Arc::new(AtomicU64::new(1));

        let mut ids = std::collections::HashSet::new();
        for i in 0..10 {
            assert!(ids.insert(a.insert("k", json!({"writer": "a", "i": i})).unwrap()));
            assert!(ids.insert(b.insert("k", json!({"writer": "b", "i": i})).unwrap()));
        }
        assert_eq!(a.ids().unwrap().len(), 20, "no document was overwritten");
    }

    #[test]
    fn concurrent_inserts_across_handles_stay_unique() {
        let dir = tempfile::tempdir().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = store(dir.path());
                std::thread::spawn(move || {
                    (0..25).map(|i| s.insert("k", json!({"i": i})).unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = std::collections::HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "two writers produced the same document id");
            }
        }
        let s = store(dir.path());
        assert_eq!(s.ids().unwrap().len(), 100);
    }

    #[test]
    fn corrupted_and_mislabeled_docs_are_rejected_on_read() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let a = s.insert("k", json!({"x": 1})).unwrap();
        let b = s.insert("k", json!({"x": 2})).unwrap();

        let docs = dir.path().join("docs");
        std::fs::write(docs.join(format!("{a}.json")), b"{truncated").unwrap();
        let copy = DocId::from_string("00000000-ff".into());
        std::fs::copy(docs.join(format!("{b}.json")), docs.join(format!("{copy}.json"))).unwrap();

        assert!(matches!(s.get(&a), Err(StoreError::Json(_))));
        assert!(matches!(s.get(&copy), Err(StoreError::Malformed(_))));
        assert_eq!(s.get(&b).unwrap().body["x"], 2, "the original still reads");
        // The physical scan does not parse documents: it reports nothing.
        std::fs::create_dir_all(dir.path().join("files")).unwrap();
        assert!(crate::fsck::scan_local(dir.path()).unwrap().is_empty());
    }
}
