//! Blob ids — the shared-file-system analog.
//!
//! The local store keeps one `<id>.bin` file per blob under `files/`, in a
//! [`StoreDir`](crate::atomic::StoreDir): blobs are opaque bytes, so the
//! directory type is the whole file half, with no codec on top.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::atomic::DirId;
use crate::storage::StoreError;

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

impl DirId for FileId {
    const EXT: &'static str = "bin";

    fn wrap(raw: String) -> FileId {
        FileId(raw)
    }

    fn raw(&self) -> &str {
        &self.0
    }

    fn missing(&self) -> StoreError {
        StoreError::MissingFile(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use crate::ModelStorage;

    #[test]
    fn put_get_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let id = s.put_file(b"hello world").unwrap();
        assert_eq!(s.get_file(&id).unwrap(), b"hello world");
        assert_eq!(s.file_size(&id).unwrap(), 11);
        assert!(s.contains_file(&id));
        assert_eq!(s.file_ids().unwrap(), vec![id]);
    }

    #[test]
    fn empty_file_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let id = s.put_file(&[]).unwrap();
        assert_eq!(s.get_file(&id).unwrap(), Vec::<u8>::new());
        assert_eq!(s.file_size(&id).unwrap(), 0);
    }
}
