//! Cross-crate integration tests through the `mmlib` facade: mixed-approach
//! model chains, the full standard flow per approach, and adaptive saving.

use mmlib::core::adaptive::{choose_approach, Policy, SaveScenario};
use mmlib::core::meta::{ApproachKind, ModelRelation};
use mmlib::core::{RecoverOptions, SaveRequest, SaveService, TrainProvenance};
use mmlib::data::loader::LoaderConfig;
use mmlib::data::{DataLoader, Dataset, DatasetId};
use mmlib::dist::flow::{run_flow, FlowConfig};
use mmlib::model::{ArchId, Model};
use mmlib::store::ModelStorage;
use mmlib::tensor::ExecMode;
use mmlib::train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const SCALE: f64 = 1.0 / 8192.0;

fn train_once(
    model: &mut Model,
    seed: u64,
) -> (TrainProvenance, LoaderConfig, TrainConfig) {
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 16,
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
        dataset_id: DatasetId::CocoFood512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoFood512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(model);
    (prov, loader_config, train_config)
}

#[test]
fn mixed_approach_chain_recovers_exactly() {
    // BA initial -> PUA update -> MPA provenance -> PUA update: the recovery
    // dispatcher must resolve a chain whose links were saved by different
    // approaches (the store records the approach per document).
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());

    let mut model = Model::new_initialized(ArchId::ResNet18, 1);
    model.set_fully_trainable();
    let id0 = svc.save(SaveRequest::full(&model)).unwrap().id;

    model.set_classifier_only_trainable();
    train_once(&mut model, 10);
    let id1 = svc.save(SaveRequest::update(&model, &id0)).unwrap().id;

    let (prov, _, _) = train_once(&mut model, 11);
    let id2 = svc.save(SaveRequest::provenance(&model, &id1, &prov)).unwrap().id;

    train_once(&mut model, 12);
    let id3 = svc.save(SaveRequest::update(&model, &id2)).unwrap().id;

    let recovered = svc.recover_report(&id3, RecoverOptions::default()).unwrap();
    assert!(recovered.model.models_equal(&model), "mixed chain must recover bit-exactly");
    assert_eq!(recovered.recovered_bases, 3);
}

#[test]
fn adaptive_choice_saves_and_recovers() {
    // Drive the §4.7 heuristic end to end: let it pick the approach, save
    // accordingly, and verify exact recovery.
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::ResNet18, 2);
    model.set_fully_trainable();
    let base = svc.save(SaveRequest::full(&model)).unwrap().id;

    model.set_classifier_only_trainable();
    let (prov, _, _) = train_once(&mut model, 20);

    let dataset_bytes = Dataset::new(DatasetId::CocoFood512, SCALE).total_bytes();
    let scenario = SaveScenario::from_model(
        &model,
        dataset_bytes,
        false,
        std::time::Duration::from_millis(500),
        0,
    );
    let decision = choose_approach(&scenario, &Policy::default());
    let request = match decision.approach {
        ApproachKind::Baseline => SaveRequest::full(&model).base(&base),
        ApproachKind::ParamUpdate => SaveRequest::update(&model, &base),
        ApproachKind::Provenance => SaveRequest::provenance(&model, &base, &prov),
    };
    let id = svc.save(request).unwrap().id;
    let recovered = svc.recover_report(&id, RecoverOptions::default()).unwrap();
    assert!(recovered.model.models_equal(&model));
}

#[test]
fn standard_flow_via_facade_for_every_approach() {
    for approach in ApproachKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let mut config =
            FlowConfig::standard(approach, ArchId::ResNet18, ModelRelation::PartiallyUpdated);
        config.dataset_scale = SCALE;
        config.train.resolution = 16;
        config.recover_all = true;
        let result = run_flow(&config, dir.path());
        assert_eq!(result.saves.len(), 10, "{approach}");
        assert_eq!(result.recovers.len(), 10, "{approach}");
    }
}

#[test]
fn recover_options_depth_limit_guards_chains() {
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::ResNet18, 3);
    model.set_fully_trainable();
    let mut base = svc.save(SaveRequest::full(&model)).unwrap().id;
    for seed in 0..3 {
        model.set_classifier_only_trainable();
        train_once(&mut model, 30 + seed);
        base = svc.save(SaveRequest::update(&model, &base)).unwrap().id;
    }
    let opts = RecoverOptions { max_chain_depth: 1, ..Default::default() };
    let err = svc.recover_report(&base, opts).unwrap_err();
    assert!(matches!(err, mmlib::core::CoreError::BaseChainTooDeep { .. }));
}
