//! Helpers shared by the integration tests (each test binary compiles its
//! own copy, so not every binary uses every item).
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mmlib_core::meta::ModelRelation;
use mmlib_core::{SaveService, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_store::{
    BatchId, BatchItem, DocId, Document, FileId, ModelStorage, StorageBackend, StoreError,
};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig};

/// Dataset byte-size scale the tests train on.
pub const SCALE: f64 = 0.0002;

/// A two-batch deterministic SGD run and the provenance describing it:
/// train a model with the returned service, then save it with the returned
/// provenance.
pub fn train_spec(relation: ModelRelation, seed: u64) -> (TrainProvenance, ImageNetTrainService) {
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 16,
        shuffle: true,
        augment: true,
        seed,
        max_images: Some(4),
    };
    let sgd_config = SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0, max_grad_norm: None };
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed,
        mode: ExecMode::Deterministic,
    };
    let dataset = Dataset::new(DatasetId::CocoOutdoor512, SCALE);
    let loader = DataLoader::new(dataset, loader_config);
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation,
    };
    (prov, ImageNetTrainService::new(loader, sgd, train_config))
}

/// A pass-through backend that counts `get_doc` calls per document id,
/// lists the files `get_file` reads, and counts writes: `commit_batch`
/// calls apart from per-item writes (insert, update, remove, put).
pub struct DocCountingBackend {
    inner: Arc<dyn StorageBackend>,
    doc_gets: Mutex<BTreeMap<String, u32>>,
    file_gets: Mutex<Vec<String>>,
    writes: Mutex<Writes>,
}

/// Write calls seen by a [`DocCountingBackend`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Writes {
    /// `commit_batch` calls.
    pub batches: u32,
    /// Per-item writes: `insert_doc`, `update_doc`, `remove_doc`,
    /// `put_file`, `remove_file`.
    pub items: u32,
}

impl DocCountingBackend {
    /// A service over a fresh local store at `dir`, seen through the counter
    /// (the descriptor is `dir`, so fsck still treats the store as local).
    pub fn service(dir: &std::path::Path) -> (SaveService, Arc<DocCountingBackend>) {
        let counting = Arc::new(DocCountingBackend {
            inner: ModelStorage::open(dir).unwrap().backend(),
            doc_gets: Mutex::new(BTreeMap::new()),
            file_gets: Mutex::new(Vec::new()),
            writes: Mutex::new(Writes::default()),
        });
        let backend = Arc::clone(&counting) as Arc<dyn StorageBackend>;
        (SaveService::new(ModelStorage::from_backend(backend, dir)), counting)
    }

    /// The per-document read counts since the last call.
    pub fn take_doc_gets(&self) -> BTreeMap<String, u32> {
        std::mem::take(&mut *self.doc_gets.lock().unwrap())
    }

    /// The ids of the files read since the last call, in read order.
    pub fn take_file_gets(&self) -> Vec<String> {
        std::mem::take(&mut *self.file_gets.lock().unwrap())
    }

    /// The write calls since the last call.
    pub fn take_writes(&self) -> Writes {
        std::mem::take(&mut *self.writes.lock().unwrap())
    }

    fn item_write(&self) {
        self.writes.lock().unwrap().items += 1;
    }
}

impl StorageBackend for DocCountingBackend {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        self.item_write();
        self.inner.insert_doc(kind, body)
    }
    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        *self.doc_gets.lock().unwrap().entry(id.as_str().to_string()).or_insert(0) += 1;
        self.inner.get_doc(id)
    }
    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.item_write();
        self.inner.update_doc(id, body)
    }
    fn contains_doc(&self, id: &DocId) -> bool {
        self.inner.contains_doc(id)
    }
    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.item_write();
        self.inner.remove_doc(id)
    }
    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.inner.doc_ids()
    }
    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.item_write();
        self.inner.put_file(bytes)
    }
    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.file_gets.lock().unwrap().push(id.as_str().to_string());
        self.inner.get_file(id)
    }
    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.inner.file_size(id)
    }
    fn contains_file(&self, id: &FileId) -> bool {
        self.inner.contains_file(id)
    }
    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.item_write();
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
    fn sync_ops(&self) -> u64 {
        self.inner.sync_ops()
    }
    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        self.writes.lock().unwrap().batches += 1;
        self.inner.commit_batch(items)
    }
}
