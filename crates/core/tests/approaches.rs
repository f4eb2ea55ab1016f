//! Integration tests: the three approaches' save/recover round trips,
//! recursive chains, cross-store recovery, and failure injection.

use mmlib_core::{RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib_core::meta::ModelRelation;
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, TrainConfig, TrainService};

mod common;
use common::{train_spec, SCALE};

fn service(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

#[test]
fn baseline_round_trip_is_bit_exact() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let model = Model::new_initialized(ArchId::ResNet18, 1);
    let id = svc.save(SaveRequest::full(&model)).unwrap().id;
    let rec = svc.recover_report(&id, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model));
    assert_eq!(rec.recovered_bases, 0);
    assert!(rec.phases.get("verify") > std::time::Duration::ZERO);
}

#[test]
fn baseline_recover_on_second_machine() {
    // Save through one storage handle, recover through a fresh one over the
    // same shared directory — the paper's "store on one machine, recover on
    // another" setup.
    let dir = tempfile::tempdir().unwrap();
    let model = Model::new_initialized(ArchId::MobileNetV2, 2);
    let id = {
        let svc = service(dir.path());
        svc.save(SaveRequest::full(&model)).unwrap().id
    };
    let svc2 = service(dir.path());
    let rec = svc2.recover_report(&id, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model));
}

#[test]
fn param_update_chain_recovers_exactly() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());

    // Initial model saved fully.
    let mut model = Model::new_initialized(ArchId::ResNet18, 3);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    // Chain of partially updated versions.
    let mut prev = base_id.clone();
    let mut snapshots = Vec::new();
    for step in 0..3u64 {
        model.set_classifier_only_trainable();
        let (_, mut trainer) = train_spec(ModelRelation::PartiallyUpdated, 100 + step);
        trainer.train(&mut model);
        let saved = svc.save(SaveRequest::update(&model, &prev)).unwrap();
        let id = saved.id;
        // Only the classifier layer should have changed.
        assert_eq!(saved.diff.unwrap().changed, vec!["fc".to_string()], "step {step}");
        snapshots.push((id.clone(), model.state_dict()));
        prev = id;
    }

    // Recover every chain member and check exactness + staircase depth.
    for (i, (id, expected)) in snapshots.iter().enumerate() {
        let rec = svc.recover_report(id, RecoverOptions::default()).unwrap();
        let sd = rec.model.state_dict();
        assert_eq!(sd.len(), expected.len());
        for ((p, a), (_, b)) in sd.iter().zip(expected) {
            assert!(a.bit_eq(b), "chain {i}: {p} differs");
        }
        assert_eq!(rec.recovered_bases as usize, i + 1);
        // The walk alone (documents only) counts the same links, tip first.
        let limit = RecoverOptions::default().max_chain_depth;
        let chain = svc.recovery_chain(id, limit, |_| false).unwrap();
        assert_eq!(chain.len(), i + 2);
        assert_eq!((&chain[0].0, &chain[i + 1].0), (id, &base_id));
    }
}

#[test]
fn param_update_of_fully_updated_model_stores_everything() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 4);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    let (_, mut trainer) = train_spec(ModelRelation::FullyUpdated, 40);
    trainer.train(&mut model);
    let diff = svc
        .save(SaveRequest::update(&model, &base_id).relation(ModelRelation::FullyUpdated))
        .unwrap()
        .diff
        .unwrap();
    // Every layer retrains under full updates (BN buffers also shift).
    assert_eq!(diff.changed.len(), model.layers().len());
}

#[test]
fn provenance_replay_recovers_exactly() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 5);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    let (prov, mut trainer) = train_spec(ModelRelation::FullyUpdated, 50);
    trainer.train(&mut model);
    let id = svc.save(SaveRequest::provenance(&model, &base_id, &prov)).unwrap().id;

    let rec = svc.recover_report(&id, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model), "training replay must reproduce bit-exactly");
    assert_eq!(rec.recovered_bases, 1);
}

#[test]
fn provenance_chain_replays_transitively() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 6);
    model.set_fully_trainable();
    let mut prev = svc.save(SaveRequest::full(&model)).unwrap().id;

    let mut finals = Vec::new();
    for step in 0..2u64 {
        model.set_classifier_only_trainable();
        let (prov, mut trainer) = train_spec(ModelRelation::PartiallyUpdated, 60 + step);
        trainer.train(&mut model);
        let id = svc.save(SaveRequest::provenance(&model, &prev, &prov)).unwrap().id;
        finals.push((id.clone(), model.state_dict()));
        prev = id;
    }
    let (last_id, expected) = finals.last().unwrap();
    let rec = svc.recover_report(last_id, RecoverOptions::default()).unwrap();
    for ((p, a), (_, b)) in rec.model.state_dict().iter().zip(expected) {
        assert!(a.bit_eq(b), "{p} differs after transitive replay");
    }
    assert_eq!(rec.recovered_bases, 2);
}

#[test]
fn provenance_replay_with_adam_recovers_exactly() {
    // The wrapper registry must reconstruct ANY stateful optimizer class
    // (paper §3.3's generality claim): run a chain step under Adam, whose
    // state file carries two moment maps plus the step counter.
    use mmlib_train::{Adam, AdamConfig};
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 90);
    model.set_fully_trainable();

    // Warm the optimizer with one prior step so its saved state is
    // non-trivial (moments + step counter all matter for the replay).
    let adam_config = AdamConfig { lr: 0.01, ..Default::default() };
    let mut adam = Adam::new(adam_config);
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 8,
        seed: 91,
        max_images: Some(4),
        ..Default::default()
    };
    let warm_cfg = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(1),
        seed: 91,
        mode: ExecMode::Deterministic,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, SCALE), loader_config);
    let mut warm = ImageNetTrainService::new(loader.clone(), adam.clone(), warm_cfg);
    warm.train(&mut model);
    if let mmlib_train::AnyOptimizer::Adam(a) = warm.optimizer() {
        adam = a.clone();
    }
    assert_eq!(adam.steps(), 1);

    // The captured run derives from the post-warm-up model state.
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    // The provenance-captured training run, starting from the warmed state.
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed: 92,
        mode: ExecMode::Deterministic,
    };
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: adam_config.into(),
        optimizer_state_before: adam.state_bytes(),
        train_config,
        relation: ModelRelation::FullyUpdated,
    };
    let mut trainer = ImageNetTrainService::new(loader, adam, train_config);
    trainer.train(&mut model);
    let id = svc.save(SaveRequest::provenance(&model, &base_id, &prov)).unwrap().id;

    let rec = svc.recover_report(&id, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model), "Adam replay must restore moments AND step count");
}

#[test]
fn provenance_storage_is_dominated_by_dataset_unless_external() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 7);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    let (mut prov, mut trainer) = train_spec(ModelRelation::FullyUpdated, 70);
    trainer.train(&mut model);

    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::provenance(&model, &base_id, &prov)).unwrap();
    let with_dataset = svc.storage().bytes_written() - before;

    prov.dataset_external = true;
    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::provenance(&model, &base_id, &prov)).unwrap();
    let external = svc.storage().bytes_written() - before;

    let dataset_bytes = Dataset::new(DatasetId::CocoOutdoor512, SCALE).total_bytes();
    assert!(with_dataset > dataset_bytes, "container must dominate");
    assert!(external < with_dataset / 2, "external reference must avoid the container");
}

#[test]
fn compressed_update_round_trips_and_shrinks() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 55);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;
    let base_model = model.duplicate();

    model.set_classifier_only_trainable();
    let (_, mut trainer) = train_spec(ModelRelation::PartiallyUpdated, 56);
    trainer.train(&mut model);

    // Plain update for comparison.
    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::update(&model, &base_id)).unwrap();
    let plain = svc.storage().bytes_written() - before;

    // Delta-compressed update.
    let before = svc.storage().bytes_written();
    let saved = svc
        .save(SaveRequest::compressed_update(&model, &base_model, &base_id))
        .unwrap();
    let compressed = svc.storage().bytes_written() - before;

    assert_eq!(saved.diff.unwrap().changed, vec!["fc".to_string()]);
    let encoded = saved.encoded.unwrap();
    assert!(encoded.ratio() > 1.0, "ratio {}", encoded.ratio());
    assert!(compressed < plain, "compressed {compressed} >= plain {plain}");

    let rec = svc.recover_report(&saved.id, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model), "delta recovery must be bit-exact");
}

#[test]
fn compressed_update_rejects_wrong_in_memory_base() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 57);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;
    // An imposter base: same arch, different parameters.
    let imposter = Model::new_initialized(ArchId::TinyCnn, 58);
    let (_, mut trainer) = train_spec(ModelRelation::FullyUpdated, 59);
    trainer.train(&mut model);
    let err = svc
        .save(
            SaveRequest::compressed_update(&model, &imposter, &base_id)
                .relation(ModelRelation::FullyUpdated),
        )
        .unwrap_err();
    assert!(matches!(err, mmlib_core::CoreError::VerificationFailed { .. }));
}

#[test]
fn corrupted_weights_fail_verification() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let model = Model::new_initialized(ArchId::ResNet18, 8);
    let id = svc.save(SaveRequest::full(&model)).unwrap().id;

    // Corrupt one byte of the stored weights file, past the header, inside
    // the f32 payload (so deserialization still succeeds).
    let files_dir = dir.path().join("files");
    let mut victims: Vec<_> = std::fs::read_dir(&files_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    victims.sort();
    // The weights file is by far the largest.
    let victim = victims
        .iter()
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    let err = svc.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, mmlib_core::CoreError::VerificationFailed { .. }), "{err}");

    // Without verification the corruption goes unnoticed — the exact reason
    // the paper saves checksums.
    let opts = RecoverOptions { verify: false, ..Default::default() };
    let rec = svc.recover_report(&id, opts).unwrap();
    assert!(!rec.model.models_equal(&model));
}

#[test]
fn environment_mismatch_blocks_recovery_unless_skipped() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let model = Model::new_initialized(ArchId::ResNet18, 9);
    let id = svc.save(SaveRequest::full(&model)).unwrap().id;

    // Tamper with the stored environment to simulate drift.
    let mut doc = svc.storage().get_doc(id.doc_id()).unwrap();
    doc.body["environment"]["mmlib_version"] = serde_json::json!("0.0.0-other");
    svc.storage().update_doc(id.doc_id(), doc.body).unwrap();

    let err = svc.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, mmlib_core::CoreError::EnvironmentMismatch { .. }));

    let opts = RecoverOptions { check_env: false, ..Default::default() };
    let rec = svc.recover_report(&id, opts).unwrap();
    assert!(rec.model.models_equal(&model));
}

#[test]
fn update_against_mismatched_architecture_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let resnet = Model::new_initialized(ArchId::ResNet18, 10);
    let base_id = svc.save(SaveRequest::full(&resnet)).unwrap().id;
    let mobilenet = Model::new_initialized(ArchId::MobileNetV2, 10);
    let err = svc
        .save(SaveRequest::update(&mobilenet, &base_id).relation(ModelRelation::FullyUpdated))
        .unwrap_err();
    assert!(matches!(err, mmlib_core::CoreError::BadModelDocument { .. }));
}

#[test]
fn initial_relation_validation() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let model = Model::new_initialized(ArchId::ResNet18, 11);
    assert!(svc.save(SaveRequest::full(&model).relation(ModelRelation::FullyUpdated)).is_err());
    let id = svc.save(SaveRequest::full(&model)).unwrap().id;
    assert!(svc.save(SaveRequest::full(&model).base(&id).relation(ModelRelation::Initial)).is_err());
}

#[test]
fn provenance_requires_deterministic_mode() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let model = Model::new_initialized(ArchId::ResNet18, 12);
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;
    let (mut prov, _) = train_spec(ModelRelation::FullyUpdated, 90);
    prov.train_config.mode = ExecMode::Parallel;
    assert!(svc.save(SaveRequest::provenance(&model, &base_id, &prov)).is_err());
}

#[test]
fn missing_document_reports_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let bogus = mmlib_core::meta::SavedModelId(mmlib_store::DocId::from_string("nope-1".into()));
    let err = svc.recover_report(&bogus, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, mmlib_core::CoreError::Store(_)));
}

#[test]
fn storage_consumption_ordering_matches_paper_fig7() {
    // Partial ResNet-18 update: BA >> PUA, and MPA is dominated by the
    // dataset container (with this small scale the ordering BA > MPA > PUA
    // is not asserted — only the BA/PUA gap, which is scale-free).
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::ResNet18, 13);
    model.set_fully_trainable();
    let base_id = svc.save(SaveRequest::full(&model)).unwrap().id;

    model.set_classifier_only_trainable();
    let (prov, mut trainer) = train_spec(ModelRelation::PartiallyUpdated, 95);
    trainer.train(&mut model);

    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::full(&model).base(&base_id)).unwrap();
    let ba = svc.storage().bytes_written() - before;

    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::update(&model, &base_id)).unwrap();
    let pua = svc.storage().bytes_written() - before;

    let before = svc.storage().bytes_written();
    svc.save(SaveRequest::provenance(&model, &base_id, &prov)).unwrap();
    let mpa = svc.storage().bytes_written() - before;

    // ResNet-18: full snapshot ~46.8 MB vs classifier-only update ~2 MB.
    assert!(pua * 10 < ba, "PUA ({pua}) must be far below BA ({ba})");
    // MPA cost is dominated by the dataset container bytes.
    let dataset_bytes = Dataset::new(DatasetId::CocoOutdoor512, SCALE).total_bytes();
    assert!(mpa > dataset_bytes && mpa < dataset_bytes + 200_000, "mpa={mpa}");
}
