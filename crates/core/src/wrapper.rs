//! Wrapper objects for restorable training components (paper §3.3, Fig. 5).
//!
//! "To save and recover a parametrized object we wrap it in a *wrapper
//! object* ... a wrapper object holds: a reference to it; its class name;
//! the code or the import command; the initialization arguments; arguments
//! read from a configuration file; and arguments that are references to
//! other objects", plus a state file for stateful objects.
//!
//! Rust has no runtime class loading, so the "code or import command" is
//! recorded verbatim for provenance fidelity while re-instantiation goes
//! through a closed registry of known classes — the same classes the
//! paper's `ImageNetTrainService` example wires together: the dataloader
//! (stateless), the optimizer (stateful), and the train service itself.
//!
//! Writing a wrapper tree is not this module's job: its builders return
//! [`BatchItem`]s that reference each other (and the optimizer's state
//! file) by [`mmlib_store::batch_ref`], and a provenance save commits them
//! in the one batch that also holds its model-info document.

use std::collections::BTreeMap;

use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset};
use mmlib_store::{BatchItem, DocId, FileId, ModelStorage};
use mmlib_train::{AnyOptimizer, ImageNetTrainService, OptimizerConfig, TrainConfig};
use serde::{Deserialize, Serialize};

use crate::error::{to_json_value, CoreError};
use crate::meta::kinds;

/// A serialized wrapper object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WrapperDoc {
    /// Class name of the wrapped object.
    pub class_name: String,
    /// The defining code or the import command for library classes.
    pub import_or_code: String,
    /// Constructor arguments (JSON).
    pub init_args: serde_json::Value,
    /// Arguments sourced from configuration files (JSON).
    pub config_args: serde_json::Value,
    /// Named references to other wrapped objects (document ids).
    pub ref_args: BTreeMap<String, String>,
    /// State file for stateful objects (file id).
    pub state_file: Option<String>,
}

/// Wrapper class names known to the registry.
pub mod classes {
    /// The deterministic batch loader (stateless parametrized object).
    pub const DATA_LOADER: &str = "DataLoader";
    /// SGD with momentum (stateful parametrized object).
    pub const SGD: &str = "Sgd";
    /// Adam (stateful parametrized object with two moments + step counter).
    pub const ADAM: &str = "Adam";
    /// The image-classification train service (training logic).
    pub const TRAIN_SERVICE: &str = "ImageNetTrainService";
}

/// A wrapper document as a batch item.
fn wrapper_item(doc: &WrapperDoc) -> Result<BatchItem, CoreError> {
    Ok(BatchItem::Doc { kind: kinds::WRAPPER.into(), body: to_json_value("WrapperDoc", doc)? })
}

/// The dataloader wrapper document, as a batch item.
pub fn loader_wrapper_item(config: &LoaderConfig) -> Result<BatchItem, CoreError> {
    wrapper_item(&WrapperDoc {
        class_name: classes::DATA_LOADER.into(),
        import_or_code: "use mmlib_data::DataLoader;".into(),
        init_args: to_json_value("LoaderConfig", config)?,
        config_args: serde_json::Value::Null,
        ref_args: BTreeMap::new(),
        state_file: None,
    })
}

/// The optimizer wrapper document, as a batch item. `state_file` names its
/// state file: an id, or the [`mmlib_store::batch_ref`] of an earlier
/// item of the same batch.
pub fn optimizer_wrapper_item(
    config: &OptimizerConfig,
    state_file: String,
) -> Result<BatchItem, CoreError> {
    wrapper_item(&WrapperDoc {
        class_name: config.class_name().into(),
        import_or_code: format!("use mmlib_train::{};", config.class_name()),
        init_args: to_json_value("OptimizerConfig", config)?,
        config_args: serde_json::Value::Null,
        ref_args: BTreeMap::new(),
        state_file: Some(state_file),
    })
}

/// The train-service wrapper document, as a batch item, referencing its
/// dataloader and optimizer wrappers (ids or batch references).
pub fn train_service_wrapper_item(
    train_config: &TrainConfig,
    loader: String,
    optimizer: String,
) -> Result<BatchItem, CoreError> {
    wrapper_item(&WrapperDoc {
        class_name: classes::TRAIN_SERVICE.into(),
        import_or_code: "use mmlib_train::ImageNetTrainService;".into(),
        init_args: to_json_value("TrainConfig", train_config)?,
        config_args: serde_json::Value::Null,
        ref_args: BTreeMap::from([
            ("dataloader".to_string(), loader),
            ("optimizer".to_string(), optimizer),
        ]),
        state_file: None,
    })
}

/// Loads and decodes a wrapper document.
pub fn load_wrapper(storage: &ModelStorage, id: &DocId) -> Result<WrapperDoc, CoreError> {
    let doc = storage.get_doc(id)?;
    serde_json::from_value(doc.body).map_err(|e| CoreError::Store(e.into()))
}

/// Re-instantiates a full train service from its wrapper document tree.
///
/// `dataset` is supplied by the caller because the dataset reference lives
/// in the model-info document (the loader wrapper holds only the loader's
/// own constructor arguments, mirroring the paper's Fig. 5 layout).
pub fn reconstruct_train_service(
    storage: &ModelStorage,
    train_service_doc: &DocId,
    dataset: Dataset,
) -> Result<ImageNetTrainService, CoreError> {
    let svc_doc = load_wrapper(storage, train_service_doc)?;
    if svc_doc.class_name != classes::TRAIN_SERVICE {
        return Err(CoreError::UnknownWrapperClass(svc_doc.class_name));
    }
    let train_config: TrainConfig = serde_json::from_value(svc_doc.init_args)
        .map_err(|e| CoreError::Store(e.into()))?;

    let loader_id = svc_doc
        .ref_args
        .get("dataloader")
        .ok_or_else(|| CoreError::UnknownWrapperClass("missing dataloader ref".into()))?;
    let loader_doc = load_wrapper(storage, &DocId::from_string(loader_id.clone()))?;
    if loader_doc.class_name != classes::DATA_LOADER {
        return Err(CoreError::UnknownWrapperClass(loader_doc.class_name));
    }
    let loader_config: LoaderConfig = serde_json::from_value(loader_doc.init_args)
        .map_err(|e| CoreError::Store(e.into()))?;
    let loader = DataLoader::new(dataset, loader_config);

    let opt_id = svc_doc
        .ref_args
        .get("optimizer")
        .ok_or_else(|| CoreError::UnknownWrapperClass("missing optimizer ref".into()))?;
    let opt_doc = load_wrapper(storage, &DocId::from_string(opt_id.clone()))?;
    if opt_doc.class_name != classes::SGD && opt_doc.class_name != classes::ADAM {
        return Err(CoreError::UnknownWrapperClass(opt_doc.class_name));
    }
    let opt_config: OptimizerConfig =
        serde_json::from_value(opt_doc.init_args).map_err(|e| CoreError::Store(e.into()))?;
    if opt_config.class_name() != opt_doc.class_name {
        return Err(CoreError::UnknownWrapperClass(format!(
            "wrapper class {} does not match its init args",
            opt_doc.class_name
        )));
    }
    let mut optimizer: AnyOptimizer = opt_config.build();
    if let Some(state_id) = &opt_doc.state_file {
        let bytes = storage.get_file(&FileId::from_string(state_id.clone()))?;
        optimizer.load_state(&bytes)?;
    }

    Ok(ImageNetTrainService::new(loader, optimizer, train_config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_data::DatasetId;
    use mmlib_store::batch_ref;
    use mmlib_train::{Sgd, SgdConfig};

    /// Commits a wrapper tree as one batch: loader, state file, optimizer,
    /// train service. Returns the ids of the loader, optimizer and train
    /// service documents.
    fn commit_tree(
        storage: &ModelStorage,
        loader: &LoaderConfig,
        optimizer: &OptimizerConfig,
        state: &[u8],
        train: &TrainConfig,
    ) -> [DocId; 3] {
        let batch = vec![
            loader_wrapper_item(loader).unwrap(),
            BatchItem::File { bytes: state.to_vec() },
            optimizer_wrapper_item(optimizer, batch_ref(1)).unwrap(),
            train_service_wrapper_item(train, batch_ref(0), batch_ref(2)).unwrap(),
        ];
        let ids = storage.commit_batch(batch).unwrap();
        let doc = |i: usize| match &ids[i] {
            mmlib_store::BatchId::Doc(d) => d.clone(),
            other => panic!("item {i} is not a document: {other:?}"),
        };
        [doc(0), doc(2), doc(3)]
    }

    #[test]
    fn wrapper_tree_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();

        let loader_config = LoaderConfig { batch_size: 4, resolution: 16, seed: 7, ..Default::default() };
        let sgd_config = SgdConfig { lr: 0.02, momentum: 0.8, weight_decay: 0.0, max_grad_norm: None };
        let train_config = TrainConfig { epochs: 3, ..Default::default() };

        let sgd = Sgd::new(sgd_config);
        let state = sgd.state_bytes();

        let [_, _, svc_doc] =
            commit_tree(&storage, &loader_config, &sgd_config.into(), &state, &train_config);

        let dataset = Dataset::new(DatasetId::CocoFood512, 0.0002);
        let svc = reconstruct_train_service(&storage, &svc_doc, dataset).unwrap();
        assert_eq!(svc.config(), &train_config);
        assert_eq!(svc.loader().config(), &loader_config);
        assert_eq!(svc.optimizer().config(), OptimizerConfig::Sgd(sgd_config));
    }

    #[test]
    fn wrong_class_is_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        let sgd = SgdConfig::default();
        let state = Sgd::new(sgd).state_bytes();
        let [loader_doc, _, _] = commit_tree(
            &storage,
            &LoaderConfig::default(),
            &sgd.into(),
            &state,
            &TrainConfig::default(),
        );
        let dataset = Dataset::new(DatasetId::CocoFood512, 0.0002);
        // A loader wrapper is not a train service.
        match reconstruct_train_service(&storage, &loader_doc, dataset) {
            Err(CoreError::UnknownWrapperClass(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("wrong class accepted"),
        }
    }

    #[test]
    fn stateful_wrapper_restores_optimizer_state() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();

        // Build an optimizer with non-trivial momentum state.
        let mut model = mmlib_model::Model::new_initialized(mmlib_model::ArchId::ResNet18, 1);
        model.set_classifier_only_trainable();
        let mut sgd = Sgd::new(SgdConfig::default());
        // Fake a gradient by zeroing grads then stepping (no-op) — instead
        // drive one real backward pass.
        let mut rng = mmlib_tensor::Pcg32::seeded(2);
        let x = mmlib_tensor::Tensor::rand_normal([1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let mut trng = mmlib_tensor::Pcg32::seeded(3);
        let mut ctx = mmlib_model::Ctx::train(&mut trng, mmlib_tensor::ExecMode::Deterministic);
        let y = model.forward(x, &mut ctx);
        let (_, g) = mmlib_train::cross_entropy(&y, &[0]);
        model.zero_grad();
        model.backward(g, &mut ctx);
        sgd.step(&mut model);
        assert!(sgd.tracked_params() > 0);

        let cfg = *sgd.config();
        let [_, doc, _] = commit_tree(
            &storage,
            &LoaderConfig::default(),
            &cfg.into(),
            &sgd.state_bytes(),
            &TrainConfig::default(),
        );
        let loaded = load_wrapper(&storage, &doc).unwrap();
        assert_eq!(loaded.class_name, classes::SGD);
        let state_file = loaded.state_file.unwrap();
        let bytes = storage.get_file(&FileId::from_string(state_file)).unwrap();
        let mut restored = Sgd::new(cfg);
        restored.load_state(&bytes).unwrap();
        assert_eq!(restored.tracked_params(), sgd.tracked_params());
    }
}
