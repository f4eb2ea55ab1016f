//! Property tests of crash consistency: a write torn at *any* byte offset
//! leaves `ids()`/`get()` observing the old state or the new state, never a
//! partial document or blob.

use mmlib_store::fault::{Fault, FaultPlan};
use mmlib_store::{ModelStorage, StoreError};
use proptest::prelude::*;
use serde_json::json;

/// A JSON body of roughly `size` bytes so cut offsets land inside it.
fn body_of(size: usize, tag: u64) -> serde_json::Value {
    json!({"tag": tag, "fill": "x".repeat(size)})
}

proptest! {
    #[test]
    fn torn_insert_is_never_partially_visible(
        size in 0usize..4000,
        cut in 0u64..5000,
        tag in 0u64..1_000_000,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let (storage, inj) = ModelStorage::open_with_faults(
            dir.path(),
            FaultPlan::new(tag).with(0, Fault::TornWrite { after_bytes: cut }),
        ).unwrap();

        let err = storage.insert_doc("k", body_of(size, tag)).unwrap_err();
        prop_assert!(matches!(err, StoreError::Io(_)), "torn insert fails typed");
        prop_assert_eq!(inj.injected(), 1);

        // Simulated crash + reopen: the store must look like the insert
        // never happened.
        drop(storage);
        let reopened = ModelStorage::open(dir.path()).unwrap();
        prop_assert!(reopened.doc_ids().unwrap().is_empty());
    }

    #[test]
    fn torn_update_preserves_the_old_body(
        old_size in 0usize..2000,
        new_size in 0usize..2000,
        cut in 0u64..3000,
        tag in 0u64..1_000_000,
    ) {
        let dir = tempfile::tempdir().unwrap();
        // Op 0 is the initial insert; the update at op 1 gets torn.
        let (storage, _inj) = ModelStorage::open_with_faults(
            dir.path(),
            FaultPlan::new(tag).with(1, Fault::TornWrite { after_bytes: cut }),
        ).unwrap();

        let old_body = body_of(old_size, tag);
        let id = storage.insert_doc("k", old_body.clone()).unwrap();
        prop_assert!(storage.update_doc(&id, body_of(new_size, tag + 1)).is_err());

        drop(storage);
        let reopened = ModelStorage::open(dir.path()).unwrap();
        let doc = reopened.get_doc(&id).unwrap();
        prop_assert_eq!(doc.body, old_body, "old state fully intact after torn update");
        prop_assert_eq!(reopened.doc_ids().unwrap().len(), 1);
    }

    #[test]
    fn torn_put_file_is_never_partially_visible(
        payload in prop::collection::vec(0u8..=255, 0..4000),
        cut in 0u64..5000,
        seed in 0u64..1_000_000,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let (storage, _inj) = ModelStorage::open_with_faults(
            dir.path(),
            FaultPlan::new(seed).with(1, Fault::TornWrite { after_bytes: cut }),
        ).unwrap();

        // Op 0: a healthy blob that must survive; op 1: the torn one.
        let keep = storage.put_file(b"keep-me").unwrap();
        prop_assert!(storage.put_file(&payload).is_err());

        drop(storage);
        let reopened = ModelStorage::open(dir.path()).unwrap();
        prop_assert_eq!(reopened.file_ids().unwrap(), vec![keep.clone()]);
        prop_assert_eq!(reopened.get_file(&keep).unwrap(), b"keep-me".to_vec());
    }
}
