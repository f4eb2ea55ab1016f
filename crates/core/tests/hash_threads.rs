//! `MMLIB_HASH_THREADS` regression: the hashing worker count is a pure
//! wall-time knob. Digests, the saved Merkle root and the bytes a save
//! writes must be identical at any thread count — if the worker count ever
//! leaked into one of them, pinning the variable in CI would mask a real
//! nondeterminism bug.
//!
//! This file holds a single `#[test]` on purpose: it mutates the process
//! environment, which would race against parallel tests in the same binary.

use mmlib_core::{SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::hash_par::{self, HASH_THREADS_ENV};

#[test]
fn thread_count_never_changes_digests_roots_or_bytes() {
    // The full MobileNetV2 state map — the exact job list the save hot path
    // hashes — serial vs heavily oversubscribed.
    let model = Model::new_initialized(ArchId::MobileNetV2, 7);
    let state = model.state_entries();
    let tensors: Vec<_> = state.iter().map(|(_, t, _, _)| *t).collect();

    let at = |workers: &str| {
        std::env::set_var(HASH_THREADS_ENV, workers);
        let digests = hash_par::hash_tensors(&tensors);
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let saved = svc.save(SaveRequest::full(&model)).unwrap();
        let root = svc.load_model_info(&saved.id).unwrap().root_hash;
        (digests, root, saved.storage_bytes)
    };
    let serial = at("1");
    let parallel = at("13");
    std::env::remove_var(HASH_THREADS_ENV);

    assert_eq!(serial.0, parallel.0, "digests must not depend on MMLIB_HASH_THREADS");
    assert_eq!(serial.1, parallel.1, "the saved Merkle root must not depend on MMLIB_HASH_THREADS");
    assert_eq!(serial.2, parallel.2, "bytes written must not depend on MMLIB_HASH_THREADS");
}
