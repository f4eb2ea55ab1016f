//! One loopback exchange per request opcode, asserting the server's
//! per-opcode request counters. The test walks `Opcode::ALL`: every
//! request opcode must be round-tripped and counted here, and the four
//! response opcodes must never be counted as requests. An opcode added
//! without coverage therefore fails this test, a dispatch arm that goes
//! missing fails to compile (`respond` matches every opcode, with no
//! wildcard), and so does a wire byte used twice.

use mmlib_net::{Opcode, RegistryServer, RemoteStore};
use mmlib_store::schema::{
    kinds, ApproachKind, EnvironmentInfo, ModelInfoDoc, ModelRelation, SavedModelId,
};
use mmlib_store::{DocId, ModelStorage, StorageBackend, StoreError};
use serde_json::json;

#[test]
fn every_request_opcode_round_trips_and_is_counted_once() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    let server = RegistryServer::bind(storage, "127.0.0.1:0").unwrap();
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    // Documents: one request per doc opcode.
    let doc = client.insert_doc("coverage", json!({"v": 1})).unwrap();
    assert_eq!(client.get_doc(&doc).unwrap().body["v"], 1u64);
    client.update_doc(&doc, json!({"v": 2})).unwrap();
    assert!(client.contains_doc(&doc));
    assert_eq!(client.doc_ids().unwrap(), vec![doc.clone()]);
    client.remove_doc(&doc).unwrap();

    // Lineage: a two-node chain of saved models. The server answers only
    // for models whose model-info document it holds.
    let saved = |approach, base: Option<&DocId>| {
        let base = base.map(|b| SavedModelId(b.clone()));
        let info = ModelInfoDoc::new(
            approach,
            "tinycnn",
            base.as_ref().map_or(ModelRelation::Initial, |_| ModelRelation::PartiallyUpdated),
            base.as_ref(),
            EnvironmentInfo::capture(),
            serde_json::from_value(json!({"leaves": ["be".repeat(32)], "paths": ["fc"]})).unwrap(),
            "beef".into(),
        );
        client.insert_doc(kinds::MODEL_INFO, serde_json::to_value(&info).unwrap()).unwrap()
    };
    let root = saved(ApproachKind::Baseline, None);
    let child = saved(ApproachKind::ParamUpdate, Some(&root));
    let record = client.lineage_node(child.as_str()).unwrap();
    assert_eq!(record.parent.as_deref(), Some(root.as_str()));
    let ancestry = client.lineage_chain(child.as_str()).unwrap();
    assert_eq!(ancestry.len(), 2);
    assert_eq!(ancestry[0].model, child.as_str());
    assert_eq!(ancestry[1].model, root.as_str());
    // A recovery's read-ahead: the chain's two model-info documents, tip
    // first, and no file (neither document names one).
    let reads = client.recovery_reads(&SavedModelId(child.clone()), 8).unwrap().unwrap();
    let read: Vec<&DocId> = reads.docs.iter().map(|doc| &doc.id).collect();
    assert_eq!(read, vec![&child, &root]);
    assert!(reads.files.is_empty());
    for doc in [child, root] {
        client.remove_doc(&doc).unwrap();
    }

    // Files: one request per file opcode.
    let file = client.put_file(b"opcode coverage payload").unwrap();
    assert_eq!(client.get_file(&file).unwrap(), b"opcode coverage payload");
    assert_eq!(client.file_size(&file).unwrap(), 23);
    assert!(client.contains_file(&file));
    assert_eq!(client.file_ids().unwrap(), vec![file.clone()]);
    client.remove_file(&file).unwrap();

    // Introspection.
    let stats = client.stats().unwrap();
    assert!(stats.raw["requests"].as_object().is_some());
    let text = client.server_stats_text().unwrap();
    assert!(text.contains("mmlib_net_requests_total"));

    let m = server.metrics();
    // Connecting performed the version handshake.
    assert_eq!(m.requests(Opcode::Ping), 1);
    // The lineage setup/teardown above adds four extra inserts and removes;
    // every other request opcode is exercised exactly once, and every
    // pooled connection opened with one `Hello`.
    let covered = [
        (Opcode::Hello, m.connections()),
        (Opcode::Ping, 1),
        (Opcode::DocInsert, 3),
        (Opcode::DocGet, 1),
        (Opcode::DocUpdate, 1),
        (Opcode::DocContains, 1),
        (Opcode::DocRemove, 3),
        (Opcode::DocIds, 1),
        (Opcode::FilePut, 1),
        (Opcode::FileGet, 1),
        (Opcode::FileSize, 1),
        (Opcode::FileContains, 1),
        (Opcode::FileRemove, 1),
        (Opcode::FileIds, 1),
        (Opcode::Stats, 1),
        (Opcode::StatsText, 1),
        (Opcode::LineageGet, 1),
        (Opcode::LineageAncestry, 1),
        (Opcode::ChainGet, 1),
    ];
    let responses = [Opcode::Ok, Opcode::Err, Opcode::Busy, Opcode::Chunk];
    for op in Opcode::ALL {
        let expect = if responses.contains(&op) {
            0
        } else {
            let found = covered.iter().find(|(c, _)| *c == op);
            found.unwrap_or_else(|| panic!("request opcode {} has no round trip here", op.name())).1
        };
        assert_eq!(m.requests(op), expect, "opcode {} miscounted", op.name());
    }
    // Responses are never counted as requests: even after an error reply
    // (`Opcode::Err` on the wire), the request table has no entry for it.
    let missing = DocId::from_string("coverage-missing".into());
    assert!(matches!(client.get_doc(&missing), Err(StoreError::MissingDocument(_))));
    for op in responses {
        assert_eq!(m.requests(op), 0, "response {} counted as a request", op.name());
    }
}
