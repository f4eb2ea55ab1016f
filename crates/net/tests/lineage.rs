//! Remote lineage means local lineage: `RemoteStore::lineage_node` /
//! `lineage_chain` against a served store answer exactly what
//! `LineageGraph::read` answers on that store, on the stores where a
//! hand-parsed server copy used to differ, and one ancestry query reads each
//! document once. The documents are built from `mmlib_store::schema`, with
//! no model library involved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mmlib_net::{RegistryServer, RemoteStore};
use mmlib_store::schema::{
    kinds, ApproachKind, EnvironmentInfo, LineageGraph, LineageRecordDoc, ModelInfoDoc,
    ModelRelation, SavedModelId,
};
use mmlib_store::{DocId, Document, FileId, ModelStorage, StorageBackend, StoreError};

/// A served store, a client of it, and the same store opened locally.
struct Served {
    _dir: tempfile::TempDir,
    local: ModelStorage,
    server: RegistryServer,
    client: RemoteStore,
}

impl Served {
    fn new() -> Served {
        let dir = tempfile::tempdir().unwrap();
        let served = ModelStorage::open(dir.path()).unwrap();
        Served::over(dir, served)
    }

    /// Serves `served`, a storage over `dir`.
    fn over(dir: tempfile::TempDir, served: ModelStorage) -> Served {
        let local = ModelStorage::open(dir.path()).unwrap();
        let server = RegistryServer::bind(served, "127.0.0.1:0").unwrap();
        let client = RemoteStore::builder(server.addr()).build().unwrap();
        Served { _dir: dir, local, server, client }
    }

    /// Saves a model-info document; `base` makes it a parameter update.
    fn model(&self, base: Option<&DocId>) -> DocId {
        let base = base.map(|b| SavedModelId(b.clone()));
        let mut info = ModelInfoDoc::new(
            base.as_ref().map_or(ApproachKind::Baseline, |_| ApproachKind::ParamUpdate),
            "tinycnn",
            base.as_ref().map_or(ModelRelation::Initial, |_| ModelRelation::PartiallyUpdated),
            base.as_ref(),
            EnvironmentInfo::capture(),
            serde_json::from_value(serde_json::json!({"leaves": ["ab".repeat(32)], "paths": ["fc"]}))
                .unwrap(),
            "ab".repeat(32),
        );
        info.weights_file = Some("weights-1".into());
        self.local.insert_doc(kinds::MODEL_INFO, serde_json::to_value(&info).unwrap()).unwrap()
    }

    /// Points `model`'s base at `base`, in place.
    fn rebase(&self, model: &DocId, base: &DocId) {
        let mut body = self.local.get_doc(model).unwrap().body;
        body["base_model"] = serde_json::json!(base.as_str());
        self.local.update_doc(model, body).unwrap();
    }

    fn graph(&self) -> LineageGraph {
        LineageGraph::read(&self.local).unwrap()
    }
}

fn model_id(id: &DocId) -> SavedModelId {
    SavedModelId(id.clone())
}

#[test]
fn a_cyclic_parent_chain_is_an_error_on_both_sides() {
    let s = Served::new();
    let a = s.model(None);
    let b = s.model(Some(&a));
    s.rebase(&a, &b);

    assert!(matches!(s.graph().ancestry_of(&model_id(&a)), Err(StoreError::Malformed(_))));
    let remote = s.client.lineage_chain(a.as_str());
    let malformed = matches!(&remote, Err(StoreError::Remote(e)) if e.starts_with("malformed"));
    assert!(malformed, "{remote:?}");
    // One node is still one node: the cycle fails only the walk.
    assert_eq!(s.client.lineage_node(a.as_str()).unwrap().parent.as_deref(), Some(b.as_str()));
}

#[test]
fn both_sides_build_the_same_node_from_a_model_info() {
    let s = Served::new();
    let root = s.model(None);
    let tip = s.model(Some(&root));
    let mut body = s.local.get_doc(&tip).unwrap().body;
    body["tags"] = serde_json::json!(["best"]);
    body["update_layers"] = serde_json::json!(["fc"]);
    s.local.update_doc(&tip, body).unwrap();
    // A leftover document of the retired `lineage` kind is not a node.
    s.local.insert_doc("lineage", serde_json::json!({"model": tip.as_str()})).unwrap();

    let graph = s.graph();
    assert_eq!(graph.len(), 2, "one node per model-info document");
    let local: Vec<LineageRecordDoc> =
        graph.ancestry_of(&model_id(&tip)).unwrap().into_iter().map(|n| n.record.clone()).collect();
    assert_eq!(local.len(), 2);
    assert_eq!(local[0].parent.as_deref(), Some(root.as_str()));
    assert_eq!((local[0].tags.as_slice(), local[0].changed_layers), (&["best".into()][..], Some(1)));
    assert_eq!(s.client.lineage_node(tip.as_str()).unwrap(), local[0]);
    assert_eq!(s.client.lineage_chain(tip.as_str()).unwrap(), local);
}

/// A pass-through backend that counts `get_doc` calls.
struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    doc_gets: AtomicUsize,
}

impl StorageBackend for CountingBackend {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        self.inner.insert_doc(kind, body)
    }
    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.doc_gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get_doc(id)
    }
    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.inner.update_doc(id, body)
    }
    fn contains_doc(&self, id: &DocId) -> bool {
        self.inner.contains_doc(id)
    }
    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.inner.remove_doc(id)
    }
    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.inner.doc_ids()
    }
    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.inner.put_file(bytes)
    }
    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.inner.get_file(id)
    }
    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.inner.file_size(id)
    }
    fn contains_file(&self, id: &FileId) -> bool {
        self.inner.contains_file(id)
    }
    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.inner.remove_file(id)
    }
    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.inner.file_ids()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// The count gate: one `LineageAncestry` on a depth-8 chain is one read of
/// the store — `doc_ids` and one `get_doc` per document — not one scan per
/// chain link. Counts, so the gate holds on any machine.
#[test]
fn one_ancestry_query_reads_each_document_once() {
    let dir = tempfile::tempdir().unwrap();
    let counting = Arc::new(CountingBackend {
        inner: ModelStorage::open(dir.path()).unwrap().backend(),
        doc_gets: AtomicUsize::new(0),
    });
    let backend = Arc::clone(&counting) as Arc<dyn StorageBackend>;
    let s = Served::over(dir, ModelStorage::from_backend(backend, "counting"));

    let mut chain = vec![s.model(None)];
    for _ in 0..8 {
        let parent = chain.last().unwrap().clone();
        chain.push(s.model(Some(&parent)));
    }
    // Documents no lineage query needs still cost their one read.
    s.local.insert_doc("stray", serde_json::json!({"paths": []})).unwrap();

    let docs = s.local.doc_ids().unwrap().len();
    counting.doc_gets.store(0, Ordering::Relaxed);
    let ancestry = s.client.lineage_chain(chain[8].as_str()).unwrap();
    let walked: Vec<&str> = ancestry.iter().map(|r| r.model.as_str()).collect();
    let want: Vec<&str> = chain.iter().rev().map(DocId::as_str).collect();
    assert_eq!(walked, want);
    let gets = counting.doc_gets.load(Ordering::Relaxed);
    assert_eq!(gets, docs, "get_doc calls for {docs} documents");
    assert_eq!(s.server.metrics().requests(mmlib_net::Opcode::LineageAncestry), 1);
}
