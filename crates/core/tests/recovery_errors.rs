//! Failure-injection tests of the recovery path's document handling. The
//! cases live in `common/error_cases.rs`, so that `mmlib-dist` can run each
//! through a loopback registry as well.

use mmlib_core::{RecoverOptions, SaveService};
use mmlib_store::ModelStorage;

mod common;
use common::error_cases::{self, Case};

/// Damages a fresh local store as `case` says and checks that recovering
/// the model it names fails as expected.
fn fails_as_expected(case: &Case) {
    let dir = tempfile::tempdir().unwrap();
    let s = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let id = (case.setup)(&s, dir.path());
    let err = s.recover_report(&id, RecoverOptions::default()).unwrap_err();
    assert!(case.expect.holds(&err), "{}: expected {:?}, got {err}", case.name, case.expect);
}

#[test]
fn wrong_kind_document_is_rejected() {
    fails_as_expected(&error_cases::WRONG_KIND);
}

#[test]
fn undecodable_body_is_rejected() {
    fails_as_expected(&error_cases::UNDECODABLE_BODY);
}

#[test]
fn unknown_architecture_is_rejected() {
    fails_as_expected(&error_cases::UNKNOWN_ARCHITECTURE);
}

#[test]
fn missing_weights_file_is_reported() {
    fails_as_expected(&error_cases::MISSING_WEIGHTS_FILE);
}

#[test]
fn dangling_base_reference_is_reported() {
    fails_as_expected(&error_cases::DANGLING_BASE);
}

/// The two hostile chains: an update whose base is itself, and two updates
/// that name each other. One loop follows base references and the depth
/// limit is its one guard, so both end there (`mmlib-lineage`'s
/// `hostile_chains_end_at_the_depth_guard` runs compaction and family
/// recovery over the same forgeries).
#[test]
fn cyclic_base_chain_hits_the_depth_guard() {
    fails_as_expected(&error_cases::SELF_CYCLE);
    fails_as_expected(&error_cases::TWO_CYCLE);
}

#[test]
fn derived_document_without_a_base_is_rejected() {
    fails_as_expected(&error_cases::DERIVED_WITHOUT_BASE);
}

#[test]
fn tampered_root_hash_fails_verification() {
    fails_as_expected(&error_cases::TAMPERED_ROOT_HASH);
}

#[test]
fn a_resealed_container_with_a_flipped_blob_byte_fails_verification() {
    fails_as_expected(&error_cases::FLIPPED_CONTAINER_BYTE);
}
