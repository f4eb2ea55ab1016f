//! End-to-end tests of the registry server + remote store over loopback.

use std::sync::Arc;

use bytes::Bytes;
use mmlib_net::protocol::{chunk_frames, encode_frame_v, WireVersion};
use mmlib_net::{Frame, Opcode, RegistryServer, RemoteStore, ServerConfig, CHUNK_SIZE};
use mmlib_store::{DocId, FileId, ModelStorage, StorageBackend, StoreError};
use serde_json::json;

fn server(dir: &std::path::Path) -> RegistryServer {
    let storage = ModelStorage::open(dir).unwrap();
    RegistryServer::bind(storage, "127.0.0.1:0").unwrap()
}

#[test]
fn documents_round_trip_over_the_socket() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    let id = client.insert_doc("model_info", json!({"arch": "resnet18", "n": 42})).unwrap();
    assert!(client.contains_doc(&id));
    let doc = client.get_doc(&id).unwrap();
    assert_eq!(doc.kind, "model_info");
    assert_eq!(doc.body["arch"], "resnet18");
    assert_eq!(doc.body["n"], 42u64);

    client.update_doc(&id, json!({"arch": "resnet34"})).unwrap();
    assert_eq!(client.get_doc(&id).unwrap().body["arch"], "resnet34");
    assert_eq!(client.doc_ids().unwrap(), vec![id.clone()]);

    client.remove_doc(&id).unwrap();
    assert!(!client.contains_doc(&id));
}

#[test]
fn files_stream_chunked_and_byte_exact() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    // Larger than several chunks, not chunk-aligned.
    let blob: Vec<u8> = (0..300_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    let id = client.put_file(&blob).unwrap();
    assert!(client.contains_file(&id));
    assert_eq!(client.file_size(&id).unwrap(), blob.len() as u64);
    assert_eq!(client.get_file(&id).unwrap(), blob);

    // Empty blobs are a degenerate-but-legal transfer (zero chunks).
    let empty = client.put_file(&[]).unwrap();
    assert_eq!(client.get_file(&empty).unwrap(), Vec::<u8>::new());

    client.remove_file(&id).unwrap();
    assert!(!client.contains_file(&id));
}

/// The wire bytes of one upload of `blob`: its `FilePut` announcement and
/// the frames `chunk_frames` cuts from it. The request id has a fixed
/// width, so any id gives the same length.
fn upload_wire_len(blob: &[u8]) -> u64 {
    let announce = Frame::new(Opcode::FilePut, json!({"len": blob.len() as u64}));
    let chunks = chunk_frames(1, &Bytes::copy_from_slice(blob));
    std::iter::once(&announce.with_request_id(1))
        .chain(&chunks)
        .map(|frame| encode_frame_v(frame, WireVersion::V2).unwrap().len() as u64)
        .sum()
}

#[test]
fn uploads_at_chunk_boundaries_round_trip_and_frame_like_chunk_frames() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    for len in [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 7] {
        let blob: Vec<u8> =
            (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        let before = client.wire_bytes_out();
        let id = client.put_file(&blob).unwrap();
        assert_eq!(client.wire_bytes_out() - before, upload_wire_len(&blob), "len {len}");
        assert_eq!(client.get_file(&id).unwrap(), blob, "round trip of {len} bytes");
    }
}

#[test]
fn missing_ids_map_back_to_typed_errors() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    let doc = DocId::from_string("nope-1".into());
    assert!(matches!(client.get_doc(&doc), Err(StoreError::MissingDocument(id)) if id == doc));
    let file = FileId::from_string("nope-2".into());
    assert!(matches!(client.get_file(&file), Err(StoreError::MissingFile(id)) if id == file));
    assert!(matches!(client.file_size(&file), Err(StoreError::MissingFile(_))));
}

#[test]
fn server_metrics_count_requests_and_bytes() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    let blob = vec![7u8; 100_000];
    let id = client.put_file(&blob).unwrap();
    client.get_file(&id).unwrap();

    let metrics = server.metrics();
    assert_eq!(metrics.requests(mmlib_net::Opcode::FilePut), 1);
    assert_eq!(metrics.requests(mmlib_net::Opcode::FileGet), 1);
    assert_eq!(metrics.requests(mmlib_net::Opcode::Ping), 1);
    assert!(metrics.bytes_in() >= blob.len() as u64);
    assert!(metrics.bytes_out() >= blob.len() as u64);
    assert!(metrics.connections() >= 1);

    // The Stats opcode serves the same numbers over the wire.
    let stats = client.stats().unwrap();
    assert!(stats.requests_by_opcode.contains(&("file_put".to_string(), 1)));
    assert!(stats.bytes_in >= blob.len() as u64);
}

#[test]
fn stats_text_serves_prometheus_exposition() {
    let dir = tempfile::tempdir().unwrap();
    let server1 = server(dir.path());
    let client = RemoteStore::builder(server1.addr()).build().unwrap();
    let id = client.put_file(b"observable").unwrap();
    let _ = client.get_file(&id).unwrap();

    let text = client.server_stats_text().unwrap();
    assert!(text.contains("# TYPE mmlib_net_requests_total counter"), "{text}");
    assert!(text.contains("mmlib_net_requests_total{opcode=\"file_put\"} 1"), "{text}");
    assert!(text.contains("mmlib_net_requests_total{opcode=\"file_get\"} 1"), "{text}");
    assert!(text.contains("# TYPE mmlib_net_request_seconds histogram"), "{text}");
    assert!(text.contains("mmlib_net_request_seconds_count{opcode=\"file_put\"} 1"), "{text}");
    assert!(text.contains("mmlib_net_bytes_in_total"), "{text}");
    assert!(text.contains("mmlib_net_connections_total"), "{text}");

    // Each server owns an isolated registry: a second server starts at zero.
    let dir2 = tempfile::tempdir().unwrap();
    let server2 = server(dir2.path());
    let client2 = RemoteStore::builder(server2.addr()).build().unwrap();
    let text2 = client2.server_stats_text().unwrap();
    assert!(text2.contains("mmlib_net_requests_total{opcode=\"file_put\"} 0"), "{text2}");
}

#[test]
fn client_reconnects_after_connection_loss() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    // An aggressive idle timeout drops quiet connections fast.
    let server = RegistryServer::bind_with_config(
        storage,
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(std::time::Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = RemoteStore::builder(server.addr()).build().unwrap();
    let id = client.put_file(b"before").unwrap();

    // Let the server time the connection out, then use the client again:
    // the request must transparently reconnect and succeed.
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert_eq!(client.get_file(&id).unwrap(), b"before");
    assert!(server.metrics().connections() >= 2);
}

/// The tentpole acceptance test: many concurrent clients hammer one server
/// and every byte survives the round trip.
#[test]
fn stress_eight_concurrent_clients_round_trip_byte_exact() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    let server = RegistryServer::bind_with_config(
        storage,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const OPS: usize = 12;

    let results = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move |_| {
                    let client = RemoteStore::builder(addr).build().unwrap();
                    let mut stored = Vec::new();
                    for op in 0..OPS {
                        // Distinct, deterministic per-client/op content with
                        // sizes straddling the chunk boundary.
                        let len = 40_000 + c * 17_000 + op * 3_001;
                        let blob: Vec<u8> =
                            (0..len).map(|i| ((i * (c + 3) + op * 251) % 256) as u8).collect();
                        let fid = client.put_file(&blob).unwrap();
                        let did = client
                            .insert_doc("snapshot", json!({"client": c, "op": op, "file": fid.as_str()}))
                            .unwrap();
                        stored.push((did, fid, blob));
                    }
                    // Read everything back on the same connection.
                    for (did, fid, blob) in &stored {
                        let doc = client.get_doc(did).unwrap();
                        assert_eq!(doc.body["client"], c as u64);
                        assert_eq!(doc.body["file"], fid.as_str());
                        assert_eq!(&client.get_file(fid).unwrap(), blob, "client {c} blob mismatch");
                    }
                    stored.len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
    })
    .unwrap();

    assert_eq!(results, CLIENTS * OPS);
    let metrics = server.metrics();
    assert_eq!(metrics.requests(mmlib_net::Opcode::FilePut), (CLIENTS * OPS) as u64);
    assert_eq!(metrics.requests(mmlib_net::Opcode::FileGet), (CLIENTS * OPS) as u64);
    assert!(metrics.connections() >= CLIENTS as u64);
}

#[test]
fn remote_backed_model_storage_serves_the_full_surface() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let storage: ModelStorage = RemoteStore::builder(server.addr()).build().unwrap().into_storage();

    assert!(storage.root().to_string_lossy().starts_with("tcp://"));
    let id = storage.insert_doc("k", json!({"v": 1})).unwrap();
    assert!(storage.contains_doc(&id));
    let fid = storage.put_file(b"remote bytes").unwrap();
    assert_eq!(storage.get_file(&fid).unwrap(), b"remote bytes");
    assert_eq!(storage.file_size(&fid).unwrap(), 12);
    assert!(storage.bytes_written() > 0);
    assert!(storage.bytes_read() > 0);

    // Shared through an Arc like the save/recover services hold it.
    let shared = Arc::new(storage);
    let clone = Arc::clone(&shared);
    assert_eq!(clone.get_doc(&id).unwrap().body["v"], 1u64);
}
