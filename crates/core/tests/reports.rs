//! The save/recover report surface: phase sums and labels, machine-
//! invariant cost counts (durability syncs, document fetches), and recorder
//! routing.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use mmlib_core::meta::ModelRelation;
use mmlib_core::{
    RecoverOptions, SaveRequest, SaveService, VerifyOutcome, RECOVER_PHASES, SAVE_PHASES,
};
use mmlib_model::{ArchId, Model};
use mmlib_obs::{PhaseBreakdown, Recorder};
use mmlib_store::ModelStorage;
use mmlib_train::TrainService;

mod common;

/// Untimed slack allowed between the sum of phase durations and the total
/// wall time (argument parsing, vec assembly, clock overhead).
const EPSILON: Duration = Duration::from_millis(50);

fn service(dir: &std::path::Path) -> (SaveService, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::new());
    let svc =
        SaveService::new(ModelStorage::open(dir).unwrap()).with_recorder(Arc::clone(&recorder));
    (svc, recorder)
}

fn bump_classifier(model: &mut Model, salt: f32) {
    let prefix = model.arch.classifier_prefix();
    model.visit_trainable_mut(&mut |path, param, _| {
        if path.starts_with(prefix) {
            param.data_mut()[0] += salt;
        }
    });
}

#[test]
fn save_report_phases_sum_to_tts_within_epsilon() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, _) = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 7);
    model.set_fully_trainable();

    let full = svc.save(SaveRequest::full(&model)).unwrap();
    bump_classifier(&mut model, 1.0);
    let update = svc.save(SaveRequest::update(&model, &full.id)).unwrap();

    for report in [&full, &update] {
        let phase_sum = report.phases.total();
        assert!(phase_sum <= report.tts + EPSILON, "phases {phase_sum:?} vs tts {:?}", report.tts);
        let gap = report.tts.saturating_sub(phase_sum);
        assert!(gap < EPSILON, "untimed gap {gap:?} exceeds epsilon ({:?} total)", report.tts);
        // Every reported phase belongs to the published taxonomy.
        for (phase, _) in report.phases.entries() {
            assert!(SAVE_PHASES.contains(phase), "unknown phase {phase:?}");
        }
        assert!(report.storage_bytes > 0);
    }
    assert!(update.diff.is_some());
    assert!(update.storage_bytes < full.storage_bytes, "updates must be cheaper than snapshots");
}

#[test]
fn recover_report_phases_sum_to_ttr_within_epsilon() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, _) = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 8);
    model.set_fully_trainable();
    let base = svc.save(SaveRequest::full(&model)).unwrap();
    bump_classifier(&mut model, 2.0);
    let derived = svc.save(SaveRequest::update(&model, &base.id)).unwrap();

    let report = svc.recover_report(&derived.id, RecoverOptions::default()).unwrap();
    assert!(report.model.models_equal(&model));
    assert_eq!(report.verification, VerifyOutcome::Verified);
    assert!(report.phases.total() <= report.ttr + EPSILON);
    assert_eq!(labels(&report.phases), BTreeSet::from(RECOVER_PHASES));
    assert_eq!(report.recovered_bases, 1);
}

fn labels(phases: &PhaseBreakdown) -> BTreeSet<&'static str> {
    phases.entries().iter().map(|(phase, _)| *phase).collect()
}

/// Each approach reports exactly the phases it runs, every recovery all
/// four, and each save commits a pinned number of durability syncs and
/// documents: one staged sync per batch item plus one directory sync per
/// store the batch touches, and one model-info document that is also the
/// model's lineage node. Counts and labels, so the gate holds on any
/// machine.
#[test]
fn each_approach_reports_its_phases_and_pinned_save_costs() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, _) = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 12);
    model.set_fully_trainable();
    let counts = || (svc.storage().sync_ops(), svc.storage().doc_ids().unwrap().len());
    let since = |(syncs, docs): (u64, usize)| {
        let (syncs_now, docs_now) = counts();
        (syncs_now - syncs, docs_now - docs)
    };

    let before = counts();
    let full = svc.save(SaveRequest::full(&model)).unwrap();
    assert_eq!(labels(&full.phases), BTreeSet::from(["serialize", "hash", "write"]));
    // Weights, code, model-info (which holds the layer hashes).
    assert_eq!(since(before), (5, 1), "BA save: (syncs, documents)");

    bump_classifier(&mut model, 1.0);
    let before = counts();
    let update = svc.save(SaveRequest::update(&model, &full.id)).unwrap();
    assert_eq!(labels(&update.phases), BTreeSet::from(["diff", "hash", "serialize", "write"]));
    // Weights, model-info.
    assert_eq!(since(before), (4, 1), "PUA save: (syncs, documents)");

    let (prov, mut trainer) = common::train_spec(ModelRelation::PartiallyUpdated, 13);
    model.set_classifier_only_trainable();
    trainer.train(&mut model);
    let before = counts();
    let replay = svc.save(SaveRequest::provenance(&model, &update.id, &prov)).unwrap();
    assert_eq!(labels(&replay.phases), BTreeSet::from(["pack", "hash", "write"]));
    // One batch of three items: the dataset container, the optimizer's
    // state file and model-info (which holds the wrappers and the layer
    // hashes): three staged syncs plus one per directory the batch touches
    // (docs/, files/).
    assert_eq!(since(before), (5, 1), "MPA save: (syncs, documents)");

    for id in [&full.id, &update.id, &replay.id] {
        let report = svc.recover_report(id, RecoverOptions::default()).unwrap();
        assert_eq!(labels(&report.phases), BTreeSet::from(RECOVER_PHASES), "{id}");
    }
}

/// Every save kind is one `commit_batch` and no per-item write: a full
/// snapshot, an update, a compressed update, and a provenance save with a
/// stored and with an external dataset. Each recovers verified.
#[test]
fn every_save_kind_is_one_batch_and_no_per_item_write() {
    use common::Writes;
    let dir = tempfile::tempdir().unwrap();
    let (svc, counting) = common::DocCountingBackend::service(dir.path());
    let one_batch = Writes { batches: 1, items: 0 };
    let mut model = Model::new_initialized(ArchId::TinyCnn, 15);
    model.set_fully_trainable();

    let full = svc.save(SaveRequest::full(&model)).unwrap().id;
    assert_eq!(counting.take_writes(), one_batch, "full");

    let base_model = model.duplicate();
    bump_classifier(&mut model, 1.0);
    let update = svc.save(SaveRequest::update(&model, &full)).unwrap().id;
    assert_eq!(counting.take_writes(), one_batch, "update");

    let compressed =
        svc.save(SaveRequest::compressed_update(&model, &base_model, &full)).unwrap().id;
    assert_eq!(counting.take_writes(), one_batch, "compressed update");

    let mut saved = vec![full, update, compressed.clone()];
    for (external, seed) in [(false, 16), (true, 17)] {
        let (mut prov, mut trainer) = common::train_spec(ModelRelation::PartiallyUpdated, seed);
        prov.dataset_external = external;
        let before = model.duplicate();
        model.set_classifier_only_trainable();
        trainer.train(&mut model);
        let base = saved.last().unwrap().clone();
        assert!(!model.models_equal(&before), "training moved the model");
        saved.push(svc.save(SaveRequest::provenance(&model, &base, &prov)).unwrap().id);
        assert_eq!(counting.take_writes(), one_batch, "provenance, external dataset: {external}");
    }

    for id in &saved {
        let report = svc.recover_report(id, RecoverOptions::default()).unwrap();
        assert_eq!(report.verification, VerifyOutcome::Verified, "{id}");
    }
    assert_eq!(counting.take_writes(), Writes::default(), "recovery writes nothing");
}

/// A verified recovery reads the requested id's model-info once: the root
/// hash it verifies against is the one the chain walk already decoded.
#[test]
fn verified_recovery_fetches_model_info_exactly_once() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, counting) = common::DocCountingBackend::service(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 14);
    let saved = svc.save(SaveRequest::full(&model)).unwrap();
    counting.take_doc_gets();

    let report = svc.recover_report(&saved.id, RecoverOptions::default()).unwrap();
    assert_eq!(report.verification, VerifyOutcome::Verified);
    assert!(report.model.models_equal(&model));
    let gets = counting.take_doc_gets();
    assert_eq!(gets.get(saved.id.doc_id().as_str()), Some(&1), "doc fetches: {gets:?}");
}

#[test]
fn builder_options_skip_verification() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, _) = service(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 9);
    let saved = svc.save(SaveRequest::full(&model)).unwrap();

    let opts = RecoverOptions::new().check_env(false).verify(false).max_chain_depth(4);
    assert!(!opts.check_env);
    assert!(!opts.verify);
    assert_eq!(opts.max_chain_depth, 4);
    let report = svc.recover_report(&saved.id, opts).unwrap();
    assert_eq!(report.verification, VerifyOutcome::Skipped);
    assert_eq!(report.phases.get("verify"), Duration::ZERO);
    assert_eq!(report.phases.get("check_env"), Duration::ZERO);
}

#[test]
fn service_recorder_override_isolates_and_records() {
    let dir = tempfile::tempdir().unwrap();
    let (svc, recorder) = service(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 11);
    let saved = svc.save(SaveRequest::full(&model)).unwrap();
    let _ = svc.recover_report(&saved.id, RecoverOptions::default()).unwrap();

    // The service's own recorder saw the save and the recovery.
    assert_eq!(recorder.histogram_count("mmlib_save_seconds", Some(("approach", "BA"))), 1);
    assert_eq!(recorder.histogram_count("mmlib_recover_seconds", None), 1);
    assert!(recorder.histogram_count("mmlib_save_phase_seconds", Some(("phase", "write"))) > 0);
    assert!(
        recorder.counter_value("mmlib_save_bytes_total", Some(("approach", "BA")))
            >= saved.storage_bytes
    );
    // Recover phases record one sample per phase, even zero-duration ones.
    for phase in RECOVER_PHASES {
        assert_eq!(
            recorder.histogram_count("mmlib_recover_phase_seconds", Some(("phase", phase))),
            1,
            "{phase}"
        );
    }
}

#[test]
fn register_metrics_pre_registers_the_taxonomy() {
    let recorder = Recorder::new();
    mmlib_core::register_metrics(&recorder);
    let text = recorder.render_text();
    for phase in SAVE_PHASES {
        assert!(
            text.contains(&format!("mmlib_save_phase_seconds_count{{phase=\"{phase}\"}} 0")),
            "{phase} missing from exposition"
        );
    }
    for phase in RECOVER_PHASES {
        assert!(
            text.contains(&format!("mmlib_recover_phase_seconds_count{{phase=\"{phase}\"}} 0")),
            "{phase} missing from exposition"
        );
    }
}
