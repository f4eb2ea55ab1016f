//! Physical consistency scan of a local storage root.
//!
//! This is the filesystem half of `fsck`: it lists the leftover temporary
//! files of interrupted staged writes under `docs/` + `files/` without
//! reading any document. Document integrity (parse, embedded id) is checked
//! by `DocStore::get` on every read; the model-aware
//! half (reference resolution, Merkle re-verification, orphan detection)
//! lives in `mmlib-core::fsck` and builds on this scan.

use std::path::{Path, PathBuf};

use crate::atomic::is_tmp_name;
use crate::document::DocId;
use crate::files::FileId;
use crate::storage::StoreError;

/// True if `root` looks like a local storage root this module can scan
/// (remote descriptors like `tcp://…` are not walkable directories).
pub fn is_local_root(root: &Path) -> bool {
    root.join("docs").is_dir() && root.join("files").is_dir()
}

/// Lists the `*.tmp` files left in `root`'s `docs/` and `files/` by
/// interrupted atomic writes. Read-only; pair with [`quarantine`] to repair.
pub fn scan_local(root: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut leftovers = Vec::new();
    for sub in ["docs", "files"] {
        for entry in std::fs::read_dir(root.join(sub))? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_tmp_name) {
                leftovers.push(entry.path());
            }
        }
    }
    Ok(leftovers)
}

/// Moves `path` (which must live under `root`) into `root/quarantine/`,
/// preserving its filename; returns the destination. Quarantined entries
/// vanish from store scans but stay recoverable by hand.
pub fn quarantine(root: &Path, path: &Path) -> Result<PathBuf, StoreError> {
    let qdir = root.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .ok_or_else(|| StoreError::Malformed(format!("cannot quarantine {}", path.display())))?;
    let dest = qdir.join(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

/// Quarantines the on-disk file of document `id`; returns the destination.
pub fn quarantine_doc(root: &Path, id: &DocId) -> Result<PathBuf, StoreError> {
    quarantine(root, &root.join("docs").join(format!("{id}.json")))
}

/// Quarantines the on-disk file of blob `id`; returns the destination.
pub fn quarantine_file(root: &Path, id: &FileId) -> Result<PathBuf, StoreError> {
    quarantine(root, &root.join("files").join(format!("{id}.bin")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use crate::ModelStorage;
    use serde_json::json;

    #[test]
    fn clean_store_scans_clean() {
        let dir = tempfile::tempdir().unwrap();
        let storage = ModelStorage::open(dir.path()).unwrap();
        storage.insert_doc("k", json!({"a": 1})).unwrap();
        storage.put_file(b"blob").unwrap();
        assert!(scan_local(dir.path()).unwrap().is_empty());
    }

    #[test]
    fn torn_write_leftovers_are_reported_and_quarantinable() {
        let dir = tempfile::tempdir().unwrap();
        let (storage, _inj) = ModelStorage::open_with_faults(
            dir.path(),
            FaultPlan::new(0).with(0, Fault::TornWrite { after_bytes: 3 }),
        )
        .unwrap();
        assert!(storage.insert_doc("k", json!({"a": 1})).is_err());
        assert!(storage.doc_ids().unwrap().is_empty(), "torn doc never became visible");

        let leftovers = scan_local(dir.path()).unwrap();
        assert_eq!(leftovers.len(), 1);
        let dest = quarantine(dir.path(), &leftovers[0]).unwrap();
        assert!(dest.exists());
        assert!(scan_local(dir.path()).unwrap().is_empty());
    }
}
