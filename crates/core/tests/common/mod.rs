//! Helpers shared by the integration tests (each test binary compiles its
//! own copy, so not every binary uses every item).
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mmlib_core::meta::ModelRelation;
use mmlib_core::{SaveRequest, SaveService, SavedModelId, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::Model;
use mmlib_store::{
    BatchId, BatchItem, DocId, Document, FileId, ModelStorage, StorageBackend, StoreError,
};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

pub mod error_cases;

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

/// `TinyCnn`'s layers that hold state.
pub const LAYERS: [&str; 5] = ["conv1", "bn1", "conv2", "bn2", "fc"];

/// Changes every trainable parameter of `layer` in `model`.
pub fn bump_layer(model: &mut Model, layer: &str) {
    model.set_fully_trainable();
    let prefix = format!("{layer}.");
    model.visit_trainable_mut(&mut |path, param, _| {
        if path.starts_with(&prefix) {
            param.data_mut()[0] += 1.0;
        }
    });
}

/// Saves one link on `base`: a snapshot (kind 0), a plain update (1–3), a
/// delta update (4–5) or a provenance save (6). Updates change the layers
/// whose bits are set in `mask`, possibly none.
pub fn save_link(
    svc: &SaveService,
    model: &mut Model,
    base: &SavedModelId,
    (kind, mask, seed): (u8, u8, u64),
) -> SavedModelId {
    let before = model.duplicate();
    if kind == 6 {
        // Mostly fully updated: training every layer, the replay depends on
        // every layer of its base, which is what makes it a barrier.
        let relation = if seed % 4 == 0 {
            ModelRelation::PartiallyUpdated
        } else {
            ModelRelation::FullyUpdated
        };
        mmlib_core::meta::apply_trainability(relation, model);
        let (prov, mut trainer) = train_spec(relation, seed);
        trainer.train(model);
        return svc.save(SaveRequest::provenance(model, base, &prov)).unwrap().id;
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        if mask >> i & 1 == 1 {
            bump_layer(model, layer);
        }
    }
    let request = match kind {
        0 => SaveRequest::full(model).base(base),
        1..=3 => SaveRequest::update(model, base),
        _ => SaveRequest::compressed_update(model, &before, base),
    };
    svc.save(request).unwrap().id
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
        let counting = DocCountingBackend::wrap(ModelStorage::open(dir).unwrap().backend());
        let backend = Arc::clone(&counting) as Arc<dyn StorageBackend>;
        (SaveService::new(ModelStorage::from_backend(backend, dir)), counting)
    }

    /// A counter in front of `inner`. Like every backend that does not
    /// answer `recovery_reads`, it makes a recovery read item by item.
    pub fn wrap(inner: Arc<dyn StorageBackend>) -> Arc<DocCountingBackend> {
        Arc::new(DocCountingBackend {
            inner,
            doc_gets: Mutex::new(BTreeMap::new()),
            file_gets: Mutex::new(Vec::new()),
            writes: Mutex::new(Writes::default()),
        })
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
