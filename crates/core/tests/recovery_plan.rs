//! A tip recovery reads only the parameter updates that still own a layer.
//!
//! `recover_report` plans its fold from the chain's model-info documents:
//! a plain update all of whose layers later updates rewrite is neither
//! fetched nor decoded. These tests pin the plan by counting the files a
//! recovery reads, make each document's `update_layers` list load-bearing
//! in both directions (a fetched file must hold exactly the listed layers; a
//! wrong list on a skipped link fails verification), check that fsck still
//! names what recovery no longer reads, and compare the planned recovery
//! against the sequential fold over every link, as an oracle, on seeded
//! mixed chains.

use std::collections::BTreeSet;

use mmlib_core::meta::ModelRelation;
use mmlib_core::{
    CoreError, FsckIssue, FsckOptions, RecoverOptions, SaveRequest, SaveService, SavedModelId,
};
use mmlib_model::{ArchId, Model};
use mmlib_obs::PhaseBreakdown;
use mmlib_store::{FileId, ModelStorage};
use mmlib_train::TrainService;
use proptest::prelude::*;

mod common;
use common::{bump_layer, save_link, train_spec, DocCountingBackend, LAYERS};

/// Saves a snapshot of `model`, then one parameter update per entry of
/// `layers`, each changing only that layer. Returns the ids, snapshot
/// first.
fn update_chain(svc: &SaveService, model: &mut Model, layers: &[&str]) -> Vec<SavedModelId> {
    let mut ids = vec![svc.save(SaveRequest::full(model)).unwrap().id];
    for layer in layers {
        bump_layer(model, layer);
        let saved = svc.save(SaveRequest::update(model, ids.last().unwrap())).unwrap();
        assert_eq!(saved.diff.unwrap().changed, vec![layer.to_string()]);
        ids.push(saved.id);
    }
    ids
}

fn weights_file(svc: &SaveService, id: &SavedModelId) -> String {
    svc.load_model_info(id).unwrap().weights_file.unwrap()
}

/// Rewrites the `update_layers` list of `id`'s document, as a hostile or
/// buggy writer could.
fn set_update_layers(svc: &SaveService, id: &SavedModelId, layers: &[&str]) {
    let mut info = svc.load_model_info(id).unwrap();
    info.update_layers = Some(layers.iter().map(|l| l.to_string()).collect());
    svc.storage().update_doc(id.doc_id(), serde_json::to_value(&info).unwrap()).unwrap();
}

/// Recovers `tip` and returns which of `ids`' weights files it read, and
/// how many files it read in all.
fn weights_read(
    svc: &SaveService,
    counting: &DocCountingBackend,
    ids: &[SavedModelId],
    tip: &SavedModelId,
    expected: &Model,
) -> (Vec<usize>, usize) {
    counting.take_file_gets();
    let rec = svc.recover_report(tip, RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(expected));
    let read = counting.take_file_gets();
    let read_set: BTreeSet<&String> = read.iter().collect();
    let hits = ids
        .iter()
        .enumerate()
        .filter(|(_, id)| read_set.contains(&weights_file(svc, id)))
        .map(|(i, _)| i)
        .collect();
    (hits, read.len())
}

#[test]
fn a_same_layer_chain_tip_reads_the_snapshot_and_one_update() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, counting) = DocCountingBackend::service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    let ids = update_chain(&svc, &mut model, &["fc"; 32]);

    let (hits, files) = weights_read(&svc, &counting, &ids, &ids[32], &model);
    assert_eq!(hits, vec![0, 32], "the snapshot's weights and the tip's update");
    assert_eq!(files, 3, "two weights files and the snapshot's architecture code");
    let rec = svc.recover_report(&ids[32], RecoverOptions::default()).unwrap();
    assert_eq!(rec.recovered_bases, 32, "the chain is walked, only its reads shrink");
}

#[test]
fn a_chain_that_changes_a_new_layer_per_link_reads_every_update() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, counting) = DocCountingBackend::service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 2);
    let ids = update_chain(&svc, &mut model, &LAYERS);

    let (hits, files) = weights_read(&svc, &counting, &ids, &ids[5], &model);
    assert_eq!(hits, (0..=5).collect::<Vec<_>>());
    assert_eq!(files, 7);
}

#[test]
fn a_delta_or_provenance_link_is_a_barrier() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, counting) = DocCountingBackend::service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 3);
    // snapshot, fc, fc, delta(fc), fc. A delta decodes against its exact
    // base, so the plan starts over below it: the update right under it is
    // read although the tip rewrites the same layer, the one under that is
    // not.
    let mut ids = update_chain(&svc, &mut model, &["fc", "fc"]);
    let base_model = model.duplicate();
    bump_layer(&mut model, "fc");
    let delta = svc.save(SaveRequest::compressed_update(&model, &base_model, &ids[2])).unwrap();
    ids.push(delta.id);
    bump_layer(&mut model, "fc");
    ids.push(svc.save(SaveRequest::update(&model, &ids[3])).unwrap().id);
    let (hits, _) = weights_read(&svc, &counting, &ids, &ids[4], &model);
    assert_eq!(hits, vec![0, 2, 3, 4]);

    // A provenance save replays training on its exact base: likewise, so
    // the update under it is read too.
    model.set_fully_trainable();
    let (prov, mut trainer) = train_spec(ModelRelation::FullyUpdated, 30);
    trainer.train(&mut model);
    let mpa = svc.save(SaveRequest::provenance(&model, &ids[4], &prov)).unwrap().id;
    bump_layer(&mut model, "fc");
    let tip = svc.save(SaveRequest::update(&model, &mpa)).unwrap().id;
    let (hits, _) = weights_read(&svc, &counting, &ids, &tip, &model);
    assert_eq!(hits, vec![0, 2, 3, 4]);
}

#[test]
fn a_fetched_update_whose_list_names_a_layer_its_file_lacks_is_a_bad_document() {
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
    let ids = update_chain(&svc, &mut model, &["fc"]);
    set_update_layers(&svc, &ids[1], &["conv1", "fc"]);

    let err = svc.recover_report(&ids[1], RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { ref id, .. } if id == &ids[1]), "{err}");
}

#[test]
fn a_skipped_update_whose_list_leaves_out_a_layer_fails_verification() {
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 5);
    let mut ids = vec![svc.save(SaveRequest::full(&model)).unwrap().id];
    bump_layer(&mut model, "conv1");
    bump_layer(&mut model, "fc");
    ids.push(svc.save(SaveRequest::update(&model, &ids[0])).unwrap().id);
    bump_layer(&mut model, "fc");
    ids.push(svc.save(SaveRequest::update(&model, &ids[1])).unwrap().id);
    // The middle update holds conv1 and fc; its list now claims only fc,
    // which the tip settles, so the plan skips it and loses its conv1.
    set_update_layers(&svc, &ids[1], &["fc"]);

    let err = svc.recover_report(&ids[2], RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::VerificationFailed { .. }), "{err}");
    // Recovered directly, the middle update is fetched and its list checked.
    let err = svc.recover_report(&ids[1], RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }), "{err}");
    // fsck names the document whatever recovery reads.
    let report = mmlib_core::fsck::fsck(svc.storage(), &FsckOptions::default()).unwrap();
    let names_it = |i: &FsckIssue| matches!(i, FsckIssue::BadModelDoc { id, .. } if id == &ids[1]);
    assert!(report.issues.iter().any(names_it), "{:?}", report.issues);
}

#[test]
fn fsck_names_a_missing_update_file_that_recovery_no_longer_reads() {
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 6);
    let ids = update_chain(&svc, &mut model, &["fc"; 4]);
    let lost = FileId::from_string(weights_file(&svc, &ids[1]));
    svc.storage().remove_file(&lost).unwrap();

    let rec = svc.recover_report(&ids[4], RecoverOptions::default()).unwrap();
    assert!(rec.model.models_equal(&model), "the tip does not depend on the lost file");
    let report = mmlib_core::fsck::fsck(svc.storage(), &FsckOptions::default()).unwrap();
    assert!(
        report.issues.contains(&FsckIssue::MissingFile {
            model: ids[1].clone(),
            id: lost,
            role: "weights".into(),
        }),
        "{:?}",
        report.issues
    );
    // The model whose own update it was cannot be recovered.
    assert!(svc.recover_report(&ids[1], RecoverOptions::default()).is_err());
}

/// The sequential fold the plan must agree with: every link rebuilt in
/// order, then the one whole-result check.
fn recover_every_link(
    svc: &SaveService,
    tip: &SavedModelId,
    opts: RecoverOptions,
) -> Result<Model, CoreError> {
    let chain = svc.recovery_chain(tip, opts.max_chain_depth, |_| false)?;
    let mut phases = PhaseBreakdown::new();
    let mut model = None;
    for (id, info) in chain.iter().rev() {
        model = Some(svc.recover_step(info, id, model, &mut phases)?);
    }
    let model = model.expect("a chain ends at a snapshot");
    mmlib_core::verify::verify_against_root(&model, &chain[0].1.root_hash, tip)?;
    Ok(model)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Over seeded mixed chains of depth 1–12, the planned recovery and the
    /// sequential fold give equal models or the same error variant (a depth
    /// limit below the chain's depth is the error both must report).
    #[test]
    fn planned_recovery_matches_the_sequential_fold(
        links in prop::collection::vec((0u8..7, 0u8..32, any::<u64>()), 1..13),
        init_seed in any::<u64>(),
        cut in 0usize..48,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, init_seed);
        let mut tip = svc.save(SaveRequest::full(&model)).unwrap().id;
        for &link in &links {
            tip = save_link(&svc, &mut model, &tip, link);
        }
        let mut opts = RecoverOptions::default().check_env(false);
        if cut < 13 {
            opts = opts.max_chain_depth(cut);
        }
        let planned = svc.recover_report(&tip, opts).map(|r| r.model);
        match (planned, recover_every_link(&svc, &tip, opts)) {
            (Ok(planned), Ok(every)) => {
                prop_assert!(planned.models_equal(&every));
                prop_assert!(planned.models_equal(&model));
            }
            (Err(a), Err(b)) => {
                let same = std::mem::discriminant(&a) == std::mem::discriminant(&b);
                prop_assert!(same, "planned {} vs sequential {}", a, b);
            }
            (a, b) => prop_assert!(false, "planned {:?} vs sequential {:?}", a.err(), b.err()),
        }
    }
}
