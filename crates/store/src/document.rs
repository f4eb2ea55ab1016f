//! JSON documents — the MongoDB analog.
//!
//! The paper (§3.1) saves model metadata as JSON documents "identified by a
//! generated identifier" and organized hierarchically: documents reference
//! other documents (and files) by id. The local store keeps one compact
//! JSON file per document under `docs/`, in a
//! [`StoreDir`](crate::atomic::StoreDir) like the blobs under `files/`;
//! [`DocStore`] adds only the codec: encoding a staged document, checking
//! the embedded id on read, and rewriting a body in place.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::atomic::{DirId, StagedWrite, StoreDir};
use crate::storage::StoreError;

/// Generated identifier of a stored document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(String);

impl DocId {
    /// Wraps a raw id string (for ids read back out of document bodies).
    pub fn from_string(s: String) -> DocId {
        DocId(s)
    }

    /// The raw id string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A stored document: generated id, a `kind` tag, and a JSON body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    /// Generated identifier.
    pub id: DocId,
    /// Collection-style tag (`"model_info"`, the one kind a save writes).
    pub kind: String,
    /// Arbitrary JSON payload; references to other documents/files are
    /// stored as their id strings inside this body.
    pub body: serde_json::Value,
}

impl Document {
    /// The bytes this document occupies in a store: its encoded length. A
    /// remote client counts a document with it too, so the storage metric
    /// is the same whether a save goes to a local directory or the wire.
    pub fn stored_len(&self) -> u64 {
        encode(self).map_or(0, |bytes| bytes.len() as u64)
    }
}

impl DirId for DocId {
    const EXT: &'static str = "json";

    fn wrap(raw: String) -> DocId {
        DocId(raw)
    }

    fn raw(&self) -> &str {
        &self.0
    }

    fn missing(&self) -> StoreError {
        StoreError::MissingDocument(self.clone())
    }
}

/// The document half of the local store: a [`StoreDir`] of `<id>.json`
/// files plus the JSON codec. Listing, removal and the write protocol are
/// the directory's; this type only encodes documents and checks them on
/// read.
pub(crate) struct DocStore {
    pub(crate) dir: StoreDir<DocId>,
}

impl DocStore {
    /// Encodes a document of `kind` under a fresh id and stages it for a
    /// commit. Returns the id, the staged write and its byte count.
    pub(crate) fn stage(
        &self,
        kind: &str,
        body: serde_json::Value,
    ) -> Result<(DocId, StagedWrite, u64), StoreError> {
        let id = self.dir.next_id();
        let bytes = encode(&Document { id: id.clone(), kind: kind.to_string(), body })?;
        let staged = self.dir.stage(&id, &bytes)?;
        Ok((id, staged, bytes.len() as u64))
    }

    /// Loads a document by id. This is where document integrity is
    /// checked, once for every reader: a file that does not parse is
    /// [`StoreError::Json`], one whose embedded id is not its filename's is
    /// [`StoreError::Malformed`].
    pub(crate) fn get(&self, id: &DocId) -> Result<Document, StoreError> {
        let doc: Document = serde_json::from_slice(&self.dir.read(id)?)?;
        if doc.id != *id {
            return Err(StoreError::Malformed(format!(
                "embedded id {:?} does not match filename {id}",
                doc.id.as_str()
            )));
        }
        Ok(doc)
    }

    /// Overwrites an existing document's body, keeping its id and kind.
    pub(crate) fn update(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        let mut doc = self.get(id)?;
        doc.body = body;
        self.dir.write(id, &encode(&doc)?)
    }
}

/// The stored form of a document: compact JSON, so that a layer list's
/// nesting depth adds no indentation to its size.
fn encode(doc: &Document) -> Result<Vec<u8>, StoreError> {
    Ok(serde_json::to_vec(doc)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelStorage;
    use serde_json::json;

    #[test]
    fn insert_get_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let id = s.insert_doc("model_info", json!({"arch": "resnet18", "base": null})).unwrap();
        let doc = s.get_doc(&id).unwrap();
        assert_eq!(doc.id, id);
        assert_eq!(doc.kind, "model_info");
        assert_eq!(doc.body["arch"], "resnet18");
    }

    #[test]
    fn missing_document_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let err = s.get_doc(&DocId::from_string("deadbeef-1".into())).unwrap_err();
        assert!(matches!(err, StoreError::MissingDocument(_)));
    }

    #[test]
    fn update_replaces_body_and_keeps_kind() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let id = s.insert_doc("k", json!({"v": 1})).unwrap();
        s.update_doc(&id, json!({"v": 2})).unwrap();
        let doc = s.get_doc(&id).unwrap();
        assert_eq!((doc.kind.as_str(), &doc.body["v"]), ("k", &json!(2)));
        assert_eq!(s.doc_ids().unwrap(), vec![id]);
    }

    #[test]
    fn corrupted_and_mislabeled_docs_are_rejected_on_read() {
        let dir = tempfile::tempdir().unwrap();
        let s = ModelStorage::open(dir.path()).unwrap();
        let a = s.insert_doc("k", json!({"x": 1})).unwrap();
        let b = s.insert_doc("k", json!({"x": 2})).unwrap();

        let docs = dir.path().join("docs");
        std::fs::write(docs.join(format!("{a}.json")), b"{truncated").unwrap();
        let copy = DocId::from_string("00000000-ff".into());
        std::fs::copy(docs.join(format!("{b}.json")), docs.join(format!("{copy}.json"))).unwrap();

        assert!(matches!(s.get_doc(&a), Err(StoreError::Json(_))));
        assert!(matches!(s.get_doc(&copy), Err(StoreError::Malformed(_))));
        assert_eq!(s.get_doc(&b).unwrap().body["x"], 2, "the original still reads");
        // The physical scan does not parse documents: it reports nothing.
        assert!(crate::fsck::scan_local(dir.path()).unwrap().is_empty());
    }
}
