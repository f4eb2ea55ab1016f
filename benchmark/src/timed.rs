//! [`TimedBackend`]: a [`StorageBackend`] that records one span around every
//! call it forwards. It is how the benchmark sees the store and net layers
//! without editing them: around the local backend it times the store, around
//! a [`mmlib_net::RemoteStore`] it times client round trips.

use std::sync::Arc;

use mmlib_store::{BatchId, BatchItem, DocId, Document, FileId, StorageBackend, StoreError};

use crate::trace::Tracer;

/// Which layer a [`TimedBackend`] sits in front of; picks the span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// In front of a directory-backed store: spans are `store.<method>`.
    Store,
    /// In front of a registry client: spans are `net.<method>`.
    Net,
}

/// `[store name, net name]` of one backend method.
macro_rules! names {
    ($method:literal) => {
        [concat!("store.", $method), concat!("net.", $method)]
    };
}

/// A backend that forwards every call to `inner` inside a span.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
    boundary: Boundary,
}

impl TimedBackend {
    pub fn new(
        inner: Arc<dyn StorageBackend>,
        tracer: Arc<Tracer>,
        boundary: Boundary,
    ) -> TimedBackend {
        TimedBackend {
            inner,
            tracer,
            boundary,
        }
    }

    fn timed<T>(
        &self,
        names: [&'static str; 2],
        call: impl FnOnce(&dyn StorageBackend) -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let mut span = self.tracer.span(names[self.boundary as usize]);
        let out = call(&*self.inner);
        span.set_bytes(bytes(&out));
        out
    }
}

fn no_bytes<T>(_: &T) -> u64 {
    0
}

impl StorageBackend for TimedBackend {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        self.timed(names!("insert_doc"), |b| b.insert_doc(kind, body), no_bytes)
    }

    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.timed(names!("get_doc"), |b| b.get_doc(id), no_bytes)
    }

    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.timed(names!("update_doc"), |b| b.update_doc(id, body), no_bytes)
    }

    fn contains_doc(&self, id: &DocId) -> bool {
        self.timed(names!("contains_doc"), |b| b.contains_doc(id), no_bytes)
    }

    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.timed(names!("remove_doc"), |b| b.remove_doc(id), no_bytes)
    }

    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.timed(names!("doc_ids"), |b| b.doc_ids(), no_bytes)
    }

    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        let len = bytes.len() as u64;
        self.timed(names!("put_file"), |b| b.put_file(bytes), |_| len)
    }

    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.timed(
            names!("get_file"),
            |b| b.get_file(id),
            |out| out.as_ref().map_or(0, |blob| blob.len() as u64),
        )
    }

    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.timed(names!("file_size"), |b| b.file_size(id), no_bytes)
    }

    fn contains_file(&self, id: &FileId) -> bool {
        self.timed(names!("contains_file"), |b| b.contains_file(id), no_bytes)
    }

    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.timed(names!("remove_file"), |b| b.remove_file(id), no_bytes)
    }

    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.timed(names!("file_ids"), |b| b.file_ids(), no_bytes)
    }

    // The three counters are reads of the inner backend's accounting, not
    // operations: they are forwarded without a span.
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn sync_ops(&self) -> u64 {
        self.inner.sync_ops()
    }

    // Forwarded whole, so the inner backend keeps its own batching (one
    // durability tail locally, one request per item remotely).
    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        let blob_bytes: u64 = items
            .iter()
            .map(|item| match item {
                BatchItem::File { bytes } => bytes.len() as u64,
                BatchItem::Doc { .. } => 0,
            })
            .sum();
        self.timed(
            names!("commit_batch"),
            |b| b.commit_batch(items),
            |_| blob_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records the name of every method called on it.
    #[derive(Default)]
    struct Recording {
        calls: Mutex<Vec<&'static str>>,
    }

    impl Recording {
        fn note(&self, name: &'static str) {
            self.calls.lock().unwrap().push(name);
        }
    }

    impl StorageBackend for Recording {
        fn insert_doc(&self, _: &str, _: serde_json::Value) -> Result<DocId, StoreError> {
            self.note("insert_doc");
            Ok(DocId::from_string("d".into()))
        }
        fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
            self.note("get_doc");
            Err(StoreError::MissingDocument(id.clone()))
        }
        fn update_doc(&self, _: &DocId, _: serde_json::Value) -> Result<(), StoreError> {
            self.note("update_doc");
            Ok(())
        }
        fn contains_doc(&self, _: &DocId) -> bool {
            self.note("contains_doc");
            true
        }
        fn remove_doc(&self, _: &DocId) -> Result<(), StoreError> {
            self.note("remove_doc");
            Ok(())
        }
        fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
            self.note("doc_ids");
            Ok(Vec::new())
        }
        fn put_file(&self, _: &[u8]) -> Result<FileId, StoreError> {
            self.note("put_file");
            Ok(FileId::from_string("f".into()))
        }
        fn get_file(&self, _: &FileId) -> Result<Vec<u8>, StoreError> {
            self.note("get_file");
            Ok(vec![0; 5])
        }
        fn file_size(&self, _: &FileId) -> Result<u64, StoreError> {
            self.note("file_size");
            Ok(5)
        }
        fn contains_file(&self, _: &FileId) -> bool {
            self.note("contains_file");
            false
        }
        fn remove_file(&self, _: &FileId) -> Result<(), StoreError> {
            self.note("remove_file");
            Ok(())
        }
        fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
            self.note("file_ids");
            Ok(Vec::new())
        }
        fn bytes_written(&self) -> u64 {
            self.note("bytes_written");
            11
        }
        fn bytes_read(&self) -> u64 {
            self.note("bytes_read");
            12
        }
        fn sync_ops(&self) -> u64 {
            self.note("sync_ops");
            13
        }
        fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
            self.note("commit_batch");
            Ok(items
                .iter()
                .map(|_| BatchId::File(FileId::from_string("b".into())))
                .collect())
        }
    }

    #[test]
    fn every_method_is_forwarded_to_the_inner_backend_and_operations_are_spanned() {
        let inner = Arc::new(Recording::default());
        let tracer = Arc::new(Tracer::new());
        let timed = TimedBackend::new(inner.clone(), tracer.clone(), Boundary::Net);
        let doc = DocId::from_string("d".into());
        let file = FileId::from_string("f".into());

        timed.insert_doc("k", serde_json::Value::Null).unwrap();
        assert!(timed.get_doc(&doc).is_err());
        timed.update_doc(&doc, serde_json::Value::Null).unwrap();
        assert!(timed.contains_doc(&doc));
        timed.remove_doc(&doc).unwrap();
        timed.doc_ids().unwrap();
        timed.put_file(&[1, 2, 3]).unwrap();
        assert_eq!(timed.get_file(&file).unwrap().len(), 5);
        assert_eq!(timed.file_size(&file).unwrap(), 5);
        assert!(!timed.contains_file(&file));
        timed.remove_file(&file).unwrap();
        timed.file_ids().unwrap();
        // The inner backend's own commit_batch runs, not the per-item default.
        let ids = timed
            .commit_batch(vec![
                BatchItem::File { bytes: vec![0; 4] },
                BatchItem::Doc {
                    kind: "k".into(),
                    body: serde_json::Value::Null,
                },
            ])
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(
            (timed.bytes_written(), timed.bytes_read(), timed.sync_ops()),
            (11, 12, 13)
        );

        let operations = [
            "insert_doc",
            "get_doc",
            "update_doc",
            "contains_doc",
            "remove_doc",
            "doc_ids",
            "put_file",
            "get_file",
            "file_size",
            "contains_file",
            "remove_file",
            "file_ids",
            "commit_batch",
        ];
        let mut expected: Vec<&str> = operations.to_vec();
        expected.extend(["bytes_written", "bytes_read", "sync_ops"]);
        assert_eq!(*inner.calls.lock().unwrap(), expected);

        let spans = tracer.take();
        let names: Vec<String> = spans.iter().map(|s| s.name.to_string()).collect();
        let want: Vec<String> = operations.iter().map(|m| format!("net.{m}")).collect();
        assert_eq!(names, want);
        let bytes = |name: &str| spans.iter().find(|s| s.name == name).unwrap().bytes;
        assert_eq!(bytes("net.put_file"), 3);
        assert_eq!(bytes("net.get_file"), 5);
        assert_eq!(bytes("net.commit_batch"), 4);
    }

    #[test]
    fn the_store_boundary_names_spans_after_the_store() {
        let tracer = Arc::new(Tracer::new());
        let timed = TimedBackend::new(
            Arc::new(Recording::default()),
            tracer.clone(),
            Boundary::Store,
        );
        timed.put_file(&[0]).unwrap();
        assert_eq!(tracer.take()[0].name, "store.put_file");
    }
}
