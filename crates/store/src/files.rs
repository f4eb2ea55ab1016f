//! Flat file store — the shared-file-system analog.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::atomic::{atomic_write, stage_write, StagedWrite};
use crate::fault::FaultInjector;
use crate::storage::{Accounting, StoreError};

/// Generated identifier of a stored file.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(String);

impl FileId {
    /// Wraps a raw id string (for ids read out of document bodies).
    pub fn from_string(s: String) -> FileId {
        FileId(s)
    }

    /// The raw id string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Directory-backed file store with generated ids.
#[derive(Clone)]
pub struct FileStore {
    dir: PathBuf,
    counter: Arc<AtomicU64>,
    nonce: u64,
    accounting: Arc<Accounting>,
    faults: Option<Arc<FaultInjector>>,
}

impl FileStore {
    /// Opens (or creates) a file store in `dir`.
    pub(crate) fn open(dir: PathBuf, accounting: Arc<Accounting>) -> Result<FileStore, StoreError> {
        std::fs::create_dir_all(&dir)?;
        let mut max_seq = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".bin")) {
                if let Some(seq) = stem.split('-').nth(1).and_then(|s| u64::from_str_radix(s, 16).ok()) {
                    max_seq = max_seq.max(seq);
                }
            }
        }
        let nonce = crate::atomic::writer_nonce();
        Ok(FileStore {
            dir,
            counter: Arc::new(AtomicU64::new(max_seq + 1)),
            nonce,
            accounting,
            faults: None,
        })
    }

    /// Routes every subsequent write through `injector` (fault injection).
    pub(crate) fn set_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    fn path_of(&self, id: &FileId) -> PathBuf {
        self.dir.join(format!("{}.bin", id.as_str()))
    }

    fn next_id(&self) -> FileId {
        // Uniqueness fallback mirroring `DocStore::insert`: skip ids whose
        // file already exists rather than overwriting a colliding writer's
        // blob.
        loop {
            let seq = self.counter.fetch_add(1, Ordering::Relaxed);
            let candidate = FileId(format!("{:08x}-{:x}", self.nonce & 0xffff_ffff, seq));
            if !self.path_of(&candidate).exists() {
                break candidate;
            }
        }
    }

    /// Stores `bytes`, returning the generated file id.
    pub fn put(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        let id = self.next_id();
        atomic_write(&self.path_of(&id), bytes, self.faults.as_deref())?;
        self.accounting.add_written(bytes.len() as u64);
        self.accounting.add_syncs(2); // payload fdatasync + directory fsync
        Ok(id)
    }

    /// Stages `bytes` for a batch commit: durable under a temporary name,
    /// invisible until [`crate::atomic::commit_staged`] renames it. Returns
    /// the reserved id, the staged write, and the byte count to account for
    /// once the batch commits.
    pub(crate) fn stage(&self, bytes: &[u8]) -> Result<(FileId, StagedWrite, u64), StoreError> {
        let id = self.next_id();
        let staged = stage_write(&self.path_of(&id), bytes, self.faults.as_deref())?;
        self.accounting.add_syncs(1); // payload fdatasync; the commit fsyncs dirs
        Ok((id, staged, bytes.len() as u64))
    }

    pub(crate) fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Ids of all stored files (diagnostics/fsck).
    pub fn ids(&self) -> Result<Vec<FileId>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".bin")) {
                out.push(FileId(stem.to_string()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Loads a file by id.
    pub fn get(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.path_of(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingFile(id.clone())
            } else {
                StoreError::Io(e)
            }
        })?;
        self.accounting.add_read(bytes.len() as u64);
        Ok(bytes)
    }

    /// Size in bytes of a stored file without reading it.
    pub fn size(&self, id: &FileId) -> Result<u64, StoreError> {
        let meta = std::fs::metadata(self.path_of(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingFile(id.clone())
            } else {
                StoreError::Io(e)
            }
        })?;
        Ok(meta.len())
    }

    /// True if a file with this id exists.
    pub fn contains(&self, id: &FileId) -> bool {
        self.path_of(id).exists()
    }

    /// Removes a file (used by deletion and garbage collection).
    pub fn remove(&self, id: &FileId) -> Result<(), StoreError> {
        std::fs::remove_file(self.path_of(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingFile(id.clone())
            } else {
                StoreError::Io(e)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dir: &std::path::Path) -> FileStore {
        FileStore::open(dir.join("files"), Arc::new(Accounting::default())).unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let id = s.put(b"hello world").unwrap();
        assert_eq!(s.get(&id).unwrap(), b"hello world");
        assert_eq!(s.size(&id).unwrap(), 11);
        assert!(s.contains(&id));
    }

    #[test]
    fn empty_file_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let id = s.put(&[]).unwrap();
        assert_eq!(s.get(&id).unwrap(), Vec::<u8>::new());
        assert_eq!(s.size(&id).unwrap(), 0);
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let missing = FileId::from_string("no-1".into());
        assert!(matches!(s.get(&missing), Err(StoreError::MissingFile(_))));
        assert!(matches!(s.size(&missing), Err(StoreError::MissingFile(_))));
        assert!(!s.contains(&missing));
    }

    #[test]
    fn colliding_nonces_never_overwrite_files() {
        // Regression: writers whose `nanotime()`-derived nonces collided
        // could hand out the same file id and silently clobber each other's
        // bytes; the exists-check fallback must skip taken ids.
        let dir = tempfile::tempdir().unwrap();
        let mut a = store(dir.path());
        let mut b = store(dir.path());
        a.nonce = 0xfeed_f00d;
        b.nonce = 0xfeed_f00d;
        a.counter = Arc::new(AtomicU64::new(1));
        b.counter = Arc::new(AtomicU64::new(1));

        let ia = a.put(b"from-a").unwrap();
        let ib = b.put(b"from-b").unwrap();
        assert_ne!(ia, ib);
        assert_eq!(a.get(&ia).unwrap(), b"from-a");
        assert_eq!(a.get(&ib).unwrap(), b"from-b");
    }

    #[test]
    fn concurrent_puts_across_handles_stay_unique() {
        let dir = tempfile::tempdir().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|w: u8| {
                let s = store(dir.path());
                std::thread::spawn(move || {
                    (0..25u8).map(|i| (s.put(&[w, i]).unwrap(), vec![w, i])).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = std::collections::HashSet::new();
        let reader = store(dir.path());
        for h in handles {
            for (id, expect) in h.join().unwrap() {
                assert!(all.insert(id.clone()), "two writers produced the same file id");
                assert_eq!(reader.get(&id).unwrap(), expect, "blob content intact");
            }
        }
        assert_eq!(reader.ids().unwrap().len(), 100);
    }

    #[test]
    fn ids_scan_lists_stored_files() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let a = s.put(b"a").unwrap();
        let b = s.put(b"b").unwrap();
        let mut expect = vec![a, b];
        expect.sort();
        assert_eq!(s.ids().unwrap(), expect);
    }

    #[test]
    fn ids_are_unique_and_persist() {
        let dir = tempfile::tempdir().unwrap();
        let first = {
            let s = store(dir.path());
            s.put(b"a").unwrap()
        };
        let s2 = store(dir.path());
        let second = s2.put(b"b").unwrap();
        assert_ne!(first, second);
        assert_eq!(s2.get(&first).unwrap(), b"a");
    }
}
