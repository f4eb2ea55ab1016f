//! Tests of deletion and garbage collection over dependency chains.

use std::collections::BTreeMap;
use std::sync::Arc;

use mmlib_core::fsck::{fsck, FsckOptions};
use mmlib_core::gc::{collect_garbage, delete_model, dependency_graph};
use mmlib_core::meta::{ModelRelation, SavedModelId};
use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

mod common;
use common::DocCountingBackend;

const SCALE: f64 = 0.0001;

fn svc(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

fn train_step(model: &mut Model, seed: u64) -> TrainProvenance {
    model.set_classifier_only_trainable();
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 8,
        seed,
        max_images: Some(4),
        ..Default::default()
    };
    let sgd_config = SgdConfig::default();
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed,
        mode: ExecMode::Deterministic,
    };
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(model);
    prov
}

/// Builds: initial -> u1 -> u2 (PUA chain), plus one provenance side-branch
/// from u1. Returns (service, [initial, u1, u2, side], final model).
fn build_store(dir: &std::path::Path) -> (SaveService, Vec<SavedModelId>, Model) {
    let (s, ids, model, _) = build_counted(dir);
    (s, ids, model)
}

/// [`build_store`] seen through a backend that counts document reads.
fn build_counted(
    dir: &std::path::Path,
) -> (SaveService, Vec<SavedModelId>, Model, Arc<DocCountingBackend>) {
    let (s, counting) = DocCountingBackend::service(dir);
    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    model.set_fully_trainable();
    let initial = s.save(SaveRequest::full(&model)).unwrap().id;

    train_step(&mut model, 10);
    let u1 = s.save(SaveRequest::update(&model, &initial)).unwrap().id;

    // Side branch from u1 (provenance).
    let mut side_model = model.duplicate();
    let prov = train_step(&mut side_model, 20);
    let side = s.save(SaveRequest::provenance(&side_model, &u1, &prov)).unwrap().id;

    train_step(&mut model, 11);
    let u2 = s.save(SaveRequest::update(&model, &u1)).unwrap().id;

    (s, vec![initial, u1, u2, side], model, counting)
}

/// The store is read once per maintenance pass: no document twice (at the
/// parent, GC made 52 reads and one deletion 38, for 19 documents).
fn assert_read_once(what: &str, gets: BTreeMap<String, u32>) {
    assert!(!gets.is_empty(), "{what} read nothing");
    assert!(gets.values().all(|&n| n == 1), "{what} re-read documents: {gets:?}");
}

/// Every artifact a removed model owned went with it: fsck finds nothing.
fn assert_fsck_clean(s: &SaveService) {
    let report = fsck(s.storage(), &FsckOptions::default()).unwrap();
    assert!(report.is_clean(), "store dirty after maintenance: {:?}", report.issues);
}

fn stored_file_bytes(s: &SaveService) -> u64 {
    let storage = s.storage();
    storage.file_ids().unwrap().iter().map(|f| storage.file_size(f).unwrap()).sum()
}

#[test]
fn dependency_graph_sees_the_structure() {
    let dir = tempfile::tempdir().unwrap();
    let (s, ids, _) = build_store(dir.path());
    let graph = dependency_graph(&s).unwrap();
    assert_eq!(graph.models.len(), 4);
    // initial has one dependent (u1); u1 has two (u2 and side).
    assert_eq!(graph.dependents[&ids[0]].len(), 1);
    assert_eq!(graph.dependents[&ids[1]].len(), 2);
    // Leaves: u2 and side.
    let leaves = graph.leaves();
    assert_eq!(leaves.len(), 2);
    assert!(leaves.contains(&ids[2]) && leaves.contains(&ids[3]));
    // Chain of u2: u2 -> u1 -> initial.
    assert_eq!(graph.chain_of(&ids[2]).len(), 3);
}

/// Regression: `chain_of` followed base references with no bound, so one
/// forged document that names itself (or two that name each other) spun
/// `mmlib chain` forever while the vector grew. It stops once the chain is as
/// long as the store.
#[test]
fn chain_of_returns_on_cyclic_base_references() {
    // u1's base becomes u1 itself, then its own dependent u2.
    for new_base in [1, 2] {
        let dir = tempfile::tempdir().unwrap();
        let (s, ids, _) = build_store(dir.path());
        let mut doc = s.storage().get_doc(ids[1].doc_id()).unwrap();
        doc.body["base_model"] = serde_json::json!(ids[new_base].doc_id().as_str());
        s.storage().update_doc(ids[1].doc_id(), doc.body).unwrap();

        let graph = dependency_graph(&s).unwrap();
        let chain = graph.chain_of(&ids[2]);
        assert!(chain.len() <= graph.models.len(), "{} links", chain.len());
        assert_eq!(chain[..2], [ids[2].clone(), ids[1].clone()]);
    }
}

#[test]
fn deleting_a_base_with_dependents_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let (s, ids, _) = build_store(dir.path());
    let err = delete_model(&s, &ids[1]).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }));
    // Still recoverable afterwards.
    assert!(s.recover_report(&ids[2], RecoverOptions::default()).is_ok());
}

#[test]
fn deleting_a_leaf_works_and_frees_bytes() {
    let dir = tempfile::tempdir().unwrap();
    let (s, ids, _, counting) = build_counted(dir.path());
    let before = stored_file_bytes(&s);
    counting.take_doc_gets();
    let report = delete_model(&s, &ids[3]).unwrap();
    assert_read_once("delete_model", counting.take_doc_gets());
    assert_eq!(report.removed_models, vec![ids[3].clone()]);
    // A provenance model owns its dataset container and its optimizer's
    // state blob; both are gone and counted.
    assert_eq!(report.removed_files, 2);
    assert_eq!(report.reclaimed_bytes, before - stored_file_bytes(&s));
    assert_fsck_clean(&s);
    // The deleted model is gone; the rest of the chain still recovers.
    assert!(s.recover_report(&ids[3], RecoverOptions::default()).is_err());
    assert!(s.recover_report(&ids[2], RecoverOptions::default()).is_ok());
}

#[test]
fn gc_keeps_live_chains_and_sweeps_the_rest() {
    let dir = tempfile::tempdir().unwrap();
    let (s, ids, model, counting) = build_counted(dir.path());
    // Keep only u2: its chain (u2, u1, initial) must survive; side is swept.
    counting.take_doc_gets();
    let report = collect_garbage(&s, &[ids[2].clone()]).unwrap();
    assert_read_once("collect_garbage", counting.take_doc_gets());
    assert_eq!(report.removed_models, vec![ids[3].clone()]);
    assert_fsck_clean(&s);
    let rec = s.recover_report(&ids[2], RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model));
    // Of the four models, only the swept provenance model is gone.
    let graph = dependency_graph(&s).unwrap();
    assert_eq!(graph.models.len(), 3);
}

#[test]
fn gc_with_no_live_roots_sweeps_everything() {
    let dir = tempfile::tempdir().unwrap();
    let (s, _ids, _) = build_store(dir.path());
    let report = collect_garbage(&s, &[]).unwrap();
    assert_eq!(report.removed_models.len(), 4);
    assert!(dependency_graph(&s).unwrap().models.is_empty());
    // Every document and every blob, optimizer state included, went with
    // the models that owned them.
    assert!(s.storage().doc_ids().unwrap().is_empty());
    assert!(s.storage().file_ids().unwrap().is_empty());
}

#[test]
fn gc_keeps_a_snapshots_lineage_base_alive() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 2);
    model.set_fully_trainable();
    let base = s.save(SaveRequest::full(&model)).unwrap().id;
    train_step(&mut model, 30);
    // A snapshot saved *against* a base: recovery is self-contained, but
    // the base reference is live lineage that ancestry queries and fsck's
    // semantic pass still resolve.
    let derived = s.save(SaveRequest::full(&model).base(&base)).unwrap().id;

    let report = collect_garbage(&s, std::slice::from_ref(&derived)).unwrap();
    // Regression: marking only the recovery chain collected `base` here,
    // leaving `derived` with a dangling base reference.
    assert!(report.removed_models.is_empty(), "base is referenced lineage: {report:?}");
    assert!(s.recover_report(&base, RecoverOptions::default()).is_ok());
    assert_fsck_clean(&s);
}

#[test]
fn gc_rejects_unknown_live_roots() {
    let dir = tempfile::tempdir().unwrap();
    let (s, _, _) = build_store(dir.path());
    let bogus = SavedModelId(mmlib_store::DocId::from_string("nope-9".into()));
    assert!(collect_garbage(&s, &[bogus]).is_err());
}
