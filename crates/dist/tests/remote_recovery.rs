//! A recovery through a registry is one `ChainGet`, and it recovers what a
//! recovery of the same store in-process recovers: the same model, or the
//! same error.
//!
//! The chains and the failure cases are `mmlib-core`'s own test inputs
//! (`core/tests/common`): the generator of
//! `planned_recovery_matches_the_sequential_fold` and every case of
//! `recovery_errors.rs`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService, SavedModelId};
use mmlib_model::{ArchId, Model};
use mmlib_net::{Opcode, RegistryServer, RemoteStore};
use mmlib_store::{ModelStorage, StorageBackend};
use mmlib_tensor::ser::state_to_bytes;
use mmlib_train::TrainService;
use proptest::prelude::*;

#[path = "../../core/tests/common/mod.rs"]
mod common;
use common::{bump_layer, save_link, train_spec, DocCountingBackend};

/// A registry serving the store in `dir`, and a client of it.
fn serve(dir: &Path) -> (RegistryServer, Arc<RemoteStore>) {
    let server = RegistryServer::bind(ModelStorage::open(dir).unwrap(), "127.0.0.1:0").unwrap();
    let client = Arc::new(RemoteStore::builder(server.addr()).build().unwrap());
    (server, client)
}

/// A save service over `backend`.
fn service(backend: Arc<dyn StorageBackend>) -> SaveService {
    SaveService::new(ModelStorage::from_backend(backend, "remote"))
}

/// The recovered model's state, byte for byte.
fn state_bytes(model: &Model) -> Vec<u8> {
    let entries = model.state_entries();
    let named: Vec<(&str, &mmlib_tensor::Tensor)> =
        entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
    Vec::from(state_to_bytes(named))
}

/// Both sides ended alike: equal models, or errors of one variant.
fn agree(local: &Result<Model, CoreError>, remote: &Result<Model, CoreError>) -> bool {
    match (local, remote) {
        (Ok(a), Ok(b)) => a.models_equal(b),
        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Over seeded mixed chains of depth 1–12, with and without the
    /// environment check and under depth limits below the chain's depth,
    /// the remote and the local recovery agree.
    #[test]
    fn remote_and_local_recoveries_agree_on_generated_chains(
        links in prop::collection::vec((0u8..7, 0u8..32, any::<u64>()), 1..13),
        init_seed in any::<u64>(),
        cut in 0usize..48,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let local = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, init_seed);
        let mut tip = local.save(SaveRequest::full(&model)).unwrap().id;
        for &link in &links {
            tip = save_link(&local, &mut model, &tip, link);
        }
        let mut opts = RecoverOptions::default().check_env(init_seed & 1 == 0);
        if cut < 13 {
            opts = opts.max_chain_depth(cut);
        }
        let (_server, client) = serve(dir.path());
        let remote = service(client).recover_report(&tip, opts).map(|r| r.model);
        let local = local.recover_report(&tip, opts).map(|r| r.model);
        let (l, r) = (local.as_ref().err(), remote.as_ref().err());
        prop_assert!(agree(&local, &remote), "local {:?} vs remote {:?}", l, r);
        if let Ok(recovered) = remote {
            prop_assert!(recovered.models_equal(&model));
        }
    }
}

#[test]
fn every_recovery_error_case_fails_alike_over_the_wire() {
    for case in common::error_cases::ALL {
        let dir = tempfile::tempdir().unwrap();
        let local = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let id = (case.setup)(&local, dir.path());
        let (_server, client) = serve(dir.path());
        let err = service(client).recover_report(&id, RecoverOptions::default()).unwrap_err();
        assert!(case.expect.holds(&err), "{}: expected {:?}, got {err}", case.name, case.expect);
    }
}

/// A cyclic chain is one `ChainGet` too: the reply carries each of the
/// cycle's documents once, the recovery's walk reads them from it until
/// its depth guard trips, and it fails as it does in-process.
#[test]
fn a_cyclic_chain_is_one_chain_get_and_fails_as_in_process() {
    for case in [&common::error_cases::SELF_CYCLE, &common::error_cases::TWO_CYCLE] {
        let dir = tempfile::tempdir().unwrap();
        let local = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let id = (case.setup)(&local, dir.path());
        let in_process = local.recover_report(&id, RecoverOptions::default()).unwrap_err();
        let (server, client) = serve(dir.path());

        let before = requests(&server);
        let err = service(client).recover_report(&id, RecoverOptions::default()).unwrap_err();
        let mut asked = requests(&server);
        asked.retain(|op, n| before[op] != *n);
        let one_chain_get = BTreeMap::from([("chain_get", before["chain_get"] + 1)]);
        assert_eq!(asked, one_chain_get, "{}", case.name);
        assert!(matches!(err, CoreError::BaseChainTooDeep { .. }), "{}: {err}", case.name);
        assert_eq!(err.to_string(), in_process.to_string(), "{}", case.name);
    }
}

/// The four chains of the count gate, each saved into `svc`: returns the
/// tip and the model it must recover to.
fn gate_chains(svc: &SaveService) -> Vec<(&'static str, SavedModelId, Model)> {
    let mut out = Vec::new();

    let model = Model::new_initialized(ArchId::TinyCnn, 11);
    out.push(("BA snapshot", svc.save(SaveRequest::full(&model)).unwrap().id, model));

    let mut model = Model::new_initialized(ArchId::TinyCnn, 12);
    let mut tip = svc.save(SaveRequest::full(&model)).unwrap().id;
    for layer in ["fc", "conv1", "fc", "bn2", "conv2", "fc", "bn1", "conv1"] {
        bump_layer(&mut model, layer);
        tip = svc.save(SaveRequest::update(&model, &tip)).unwrap().id;
    }
    out.push(("PUA depth 8", tip, model));

    let mut model = Model::new_initialized(ArchId::TinyCnn, 13);
    let mut tip = svc.save(SaveRequest::full(&model)).unwrap().id;
    for layer in ["fc", "conv2"] {
        let base_model = model.duplicate();
        bump_layer(&mut model, layer);
        tip = svc.save(SaveRequest::compressed_update(&model, &base_model, &tip)).unwrap().id;
    }
    out.push(("delta_v1", tip, model));

    // The chain of `flows.rs::provenance_save_and_replay_over_tcp_are_byte_identical`.
    let mut model = Model::new_initialized(ArchId::TinyCnn, 21);
    let base = svc.save(SaveRequest::full(&model)).unwrap().id;
    let (prov, mut trainer) = train_spec(mmlib_core::ModelRelation::PartiallyUpdated, 22);
    model.set_classifier_only_trainable();
    trainer.train(&mut model);
    let tip = svc.save(SaveRequest::provenance(&model, &base, &prov)).unwrap().id;
    out.push(("MPA", tip, model));
    out
}

/// Each opcode's request count at `server`.
fn requests(server: &RegistryServer) -> BTreeMap<&'static str, u64> {
    Opcode::ALL.iter().map(|&op| (op.name(), server.metrics().requests(op))).collect()
}

/// The count gate: a remote recovery is exactly one `ChainGet` and no other
/// request, recovers byte-identical, and reads exactly the bytes the
/// per-item path reads.
#[test]
fn a_remote_recovery_is_one_chain_get_reading_the_per_item_bytes() {
    let dir = tempfile::tempdir().unwrap();
    let (server, client) = serve(dir.path());
    let svc = service(Arc::clone(&client) as Arc<dyn StorageBackend>);
    // A backend that does not answer `recovery_reads`, in front of the same
    // client: the per-item path.
    let per_item = DocCountingBackend::wrap(Arc::clone(&client) as Arc<dyn StorageBackend>);
    let per_item = service(per_item);

    for (what, tip, expected) in gate_chains(&svc) {
        let before = requests(&server);
        let read_before = client.bytes_read();
        let report = svc.recover_report(&tip, RecoverOptions::default()).unwrap();
        let read = client.bytes_read() - read_before;
        let mut asked = requests(&server);
        asked.retain(|op, n| before[op] != *n);
        assert_eq!(asked, BTreeMap::from([("chain_get", before["chain_get"] + 1)]), "{what}");
        assert_eq!(state_bytes(&report.model), state_bytes(&expected), "{what}");

        let read_before = client.bytes_read();
        let item_by_item = per_item.recover_report(&tip, RecoverOptions::default()).unwrap();
        assert_eq!(client.bytes_read() - read_before, read, "{what}: bytes read");
        assert_eq!(state_bytes(&item_by_item.model), state_bytes(&expected), "{what}");
        assert!(requests(&server)["chain_get"] == before["chain_get"] + 1, "{what}");
    }
}
