//! Deterministic network-fault tests: injected truncations, drops, and
//! connection resets must all be survived by `RemoteStore`'s retry loop,
//! with server byte counters staying consistent with what actually reached
//! the wire and the store.
//!
//! Fault schedules index *outgoing response frames* in order. Handshake
//! (`Hello`) replies are exempt — they are the v1-framed connection
//! prelude, not a response to a request — so ordinals are stable across
//! protocol versions: 0 = the first request's reply, then one per
//! reply/chunk. Clients are pinned to `pool_size(1)` so the frame order —
//! and therefore the schedule — is deterministic.

use std::sync::Arc;

use bytes::Bytes;
use mmlib_net::protocol::{encode_frame_v, read_frame_counted, WireVersion, MAX_BLOB_LEN};
use mmlib_net::{Frame, NetFaults, Opcode, RegistryServer, RemoteStore, ServerConfig};
use mmlib_store::fault::{Fault, FaultPlan};
use mmlib_store::schema::SavedModelId;
use mmlib_store::{DocId, FileId, ModelStorage, StorageBackend, StoreError};
use serde_json::json;

fn faulty_server(dir: &std::path::Path, faults: NetFaults) -> RegistryServer {
    let storage = ModelStorage::open(dir).unwrap();
    let config = ServerConfig { faults: Some(Arc::new(faults)), ..ServerConfig::default() };
    RegistryServer::bind_with_config(storage, "127.0.0.1:0", config).unwrap()
}

fn client(server: &RegistryServer) -> RemoteStore {
    RemoteStore::builder(server.addr()).pool_size(1).build().unwrap()
}

/// Exact wire size of a frame the server would send, in either framing.
fn wire_len(v: WireVersion, op: Opcode, header: serde_json::Value, payload: &[u8]) -> u64 {
    encode_frame_v(&Frame::with_payload(op, header, Bytes::copy_from_slice(payload)), v)
        .unwrap()
        .len() as u64
}

/// The v1-framed `Hello` reply that opens every v2 connection.
fn hello_reply_len() -> u64 {
    let header = json!({"version": mmlib_net::PROTOCOL_V2});
    wire_len(WireVersion::V1, Opcode::Ok, header, &[])
}

#[test]
fn truncated_chunk_mid_blob_stream_is_survived_by_retry() {
    let dir = tempfile::tempdir().unwrap();
    // Response frames: op 0 = ping reply, op 1 = put reply, op 2 = get
    // announcement, op 3 = first chunk; op 4 (the second chunk) is cut
    // after 100 bytes mid-stream.
    let plan = FaultPlan::new(11).with(4, Fault::TruncateFrame { after_bytes: 100 });
    let server = faulty_server(dir.path(), NetFaults::response_only(plan));
    let client = client(&server);

    let blob: Vec<u8> = (0..300_000u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
    let id = client.put_file(&blob).unwrap();
    let fetched = client.get_file(&id).unwrap();
    assert_eq!(fetched, blob, "retry must deliver byte-exact data");

    // The failed attempt plus the clean retry, nothing more.
    let metrics = server.metrics();
    assert_eq!(metrics.requests(Opcode::FileGet), 2);
    assert_eq!(metrics.requests(Opcode::FilePut), 1);
    assert_eq!(metrics.connections(), 2, "one reconnect after the cut stream");

    // bytes_out must count exactly what reached the socket: every full
    // frame of both attempts plus the 100-byte truncated prefix. The
    // truncation closes the connection, so the retry re-handshakes.
    let v2 = WireVersion::V2;
    let announce = wire_len(v2, Opcode::Ok, json!({"len": blob.len() as u64}), &[]);
    let chunk_full = wire_len(v2, Opcode::Chunk, json!({}), &blob[..65536]);
    let chunk_last = wire_len(v2, Opcode::Chunk, json!({}), &blob[4 * 65536..]);
    let expected_out = hello_reply_len()
        + wire_len(v2, Opcode::Ok, json!({"version": mmlib_net::PROTOCOL_V2}), &[])
        + wire_len(v2, Opcode::Ok, json!({"id": id.as_str()}), &[])
        // Failed attempt: announcement + one full chunk + the prefix.
        + announce + chunk_full + 100
        // Clean retry on a fresh connection: handshake, announcement,
        // 4 full chunks, the tail chunk.
        + hello_reply_len()
        + announce + 4 * chunk_full + chunk_last;
    assert_eq!(metrics.bytes_out(), expected_out);

    // The client's own wire counter agrees with the server's, minus the
    // 100-byte prefix its decoder threw away with the dead connection.
    assert!(client.wire_bytes_in() >= expected_out - 100 - chunk_full);

    // The store committed the blob exactly once, byte-identical.
    let direct = ModelStorage::open(dir.path()).unwrap();
    assert_eq!(direct.file_ids().unwrap(), vec![id.clone()]);
    assert_eq!(direct.get_file(&id).unwrap(), blob);
    assert!(metrics.bytes_in() >= blob.len() as u64);
}

#[test]
fn transient_connect_reset_is_survived_by_retry() {
    let dir = tempfile::tempdir().unwrap();
    // The first accepted connection is reset before it is served.
    let plan = FaultPlan::new(7).with(0, Fault::ConnReset);
    let server = faulty_server(dir.path(), NetFaults::accept_only(plan));

    // Building the store performs the Hello + Ping handshake, so surviving
    // the reset proves the retry loop covers transient connect failures
    // end to end.
    let client = client(&server);
    let id = client.insert_doc("k", json!({"v": 1})).unwrap();
    assert_eq!(client.get_doc(&id).unwrap().body["v"], 1u64);

    let metrics = server.metrics();
    assert_eq!(metrics.connections(), 1, "only the served connection is counted");
    assert_eq!(metrics.requests(Opcode::Ping), 1, "the reset connection served nothing");
}

#[test]
fn dropped_reply_retries_with_at_least_once_semantics() {
    let dir = tempfile::tempdir().unwrap();
    // Op 0 = ping reply; op 1 (the insert reply) drops the whole
    // connection before any byte, so the server commits the document but
    // the client never hears.
    let plan = FaultPlan::new(3).with(1, Fault::DropConnection);
    let server = faulty_server(dir.path(), NetFaults::response_only(plan));
    let client = client(&server);

    let id = client.insert_doc("k", json!({"v": 42})).unwrap();
    assert_eq!(client.get_doc(&id).unwrap().body["v"], 42u64);
    assert_eq!(server.metrics().requests(Opcode::DocInsert), 2, "one retry");
    assert_eq!(server.metrics().connections(), 2, "the drop killed the first connection");

    // At-least-once: the first attempt's commit survives as a duplicate —
    // the orphan `mmlib fsck` exists to find.
    let direct = ModelStorage::open(dir.path()).unwrap();
    assert_eq!(direct.doc_ids().unwrap().len(), 2);
}

#[test]
fn dropped_upload_reply_resends_the_same_bytes() {
    let dir = tempfile::tempdir().unwrap();
    // Op 0 = ping reply; op 1 (the upload's reply) drops the connection
    // after the server stored the file, so the client sends it again.
    let plan = FaultPlan::new(13).with(1, Fault::DropConnection);
    let server = faulty_server(dir.path(), NetFaults::response_only(plan));
    let client = client(&server);

    let blob: Vec<u8> = (0..3 * 65536 + 7u32).map(|i| (i.wrapping_mul(97) >> 5) as u8).collect();
    let before = client.wire_bytes_out();
    let id = client.put_file(&blob).unwrap();
    assert_eq!(server.metrics().requests(Opcode::FilePut), 2, "one retry");

    // Both attempts sent the whole upload, framed like `chunk_frames`; the
    // retry first opened a connection with a fresh `Hello`.
    let v2 = WireVersion::V2;
    let announce = wire_len(v2, Opcode::FilePut, json!({"len": blob.len() as u64}), &[]);
    let chunks: u64 = blob
        .chunks(mmlib_net::CHUNK_SIZE)
        .map(|chunk| wire_len(v2, Opcode::Chunk, json!({}), chunk))
        .sum();
    let hello = json!({"version": mmlib_net::PROTOCOL_V2});
    let hello = wire_len(WireVersion::V1, Opcode::Hello, hello, &[]);
    assert_eq!(client.wire_bytes_out() - before, 2 * (announce + chunks) + hello);

    // At-least-once: each attempt stored a file, and both hold the bytes.
    let direct = ModelStorage::open(dir.path()).unwrap();
    let ids = direct.file_ids().unwrap();
    assert_eq!(ids.len(), 2);
    assert!(ids.contains(&id));
    for stored in ids {
        assert_eq!(direct.get_file(&stored).unwrap(), blob);
    }
}

#[test]
fn lost_single_response_poisons_only_its_request_id() {
    let dir = tempfile::tempdir().unwrap();
    // Op 1 (the insert reply) is swallowed as if a single multiplexed
    // response frame were lost; unlike DropConnection, the connection —
    // and every other request on it — stays healthy.
    let plan = FaultPlan::new(9).with(1, Fault::IoError);
    let server = faulty_server(dir.path(), NetFaults::response_only(plan));
    let client = RemoteStore::builder(server.addr())
        .pool_size(1)
        .read_timeout(Some(std::time::Duration::from_millis(100)))
        .build()
        .unwrap();

    let id = client.insert_doc("k", json!({"v": 7})).unwrap();
    assert_eq!(client.get_doc(&id).unwrap().body["v"], 7u64);

    let metrics = server.metrics();
    assert_eq!(metrics.requests(Opcode::DocInsert), 2, "the lost reply forced one retry");
    assert_eq!(
        metrics.connections(),
        1,
        "a lost response must not tear the multiplexed connection down"
    );
    // At-least-once again: both insert attempts committed.
    let direct = ModelStorage::open(dir.path()).unwrap();
    assert_eq!(direct.doc_ids().unwrap().len(), 2);
}

#[test]
fn injected_latency_only_delays() {
    let dir = tempfile::tempdir().unwrap();
    let plan = FaultPlan::new(5)
        .with(0, Fault::Latency { micros: 2_000 })
        .with(1, Fault::Latency { micros: 2_000 });
    let server = faulty_server(dir.path(), NetFaults::response_only(plan));
    let client = client(&server);
    let id = client.put_file(b"slow but sure").unwrap();
    assert_eq!(client.get_file(&id).unwrap(), b"slow but sure");
    assert_eq!(server.metrics().requests(Opcode::FileGet), 1, "no retry needed");
}

#[test]
fn remote_file_ids_lists_stored_blobs() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    let server = RegistryServer::bind(storage, "127.0.0.1:0").unwrap();
    let client = RemoteStore::builder(server.addr()).build().unwrap();

    assert!(client.file_ids().unwrap().is_empty());
    let a = client.put_file(b"a").unwrap();
    let b = client.put_file(b"bb").unwrap();
    let mut expect = vec![a, b];
    expect.sort();
    assert_eq!(client.file_ids().unwrap(), expect);
}

#[test]
fn oversized_blob_announcement_fails_only_its_own_request() {
    use std::io::Write;

    // A scripted peer in place of a registry: it completes the handshake,
    // answers pings and existence checks honestly, and answers every
    // `FileGet` by announcing one byte more than a blob may ever hold. It
    // serves exactly one connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut version = WireVersion::V1;
        while let Ok((frame, _)) = read_frame_counted(&mut stream, version) {
            let header = match frame.opcode {
                Opcode::Hello => json!({"version": mmlib_net::PROTOCOL_V2, "max_inflight": 64}),
                Opcode::Ping => json!({"version": mmlib_net::PROTOCOL_V2}),
                Opcode::FileGet => json!({"len": MAX_BLOB_LEN + 1}),
                Opcode::DocContains => json!({"present": true}),
                other => panic!("unscripted request {}", other.name()),
            };
            let reply = Frame::new(Opcode::Ok, header).with_request_id(frame.request_id);
            stream.write_all(&encode_frame_v(&reply, version).unwrap()).unwrap();
            version = WireVersion::V2;
        }
    });

    let client = RemoteStore::builder(addr).pool_size(1).max_retries(0).build().unwrap();
    let asked = std::time::Instant::now();
    let err = client.get_file(&FileId::from_string("f-1".into())).unwrap_err();
    // Refused when the announcement arrives — not by waiting out the 30 s
    // read timeout for chunks that cannot all come.
    assert!(asked.elapsed() < std::time::Duration::from_secs(5), "{err}");
    assert!(err.to_string().contains("exceeds maximum"), "{err}");

    // Only that request failed: the same connection keeps serving (the
    // peer would never answer a second one's handshake).
    assert!(client.contains_doc(&DocId::from_string("d-1".into())));
    drop(client);
    peer.join().unwrap();
}

#[test]
fn undecodable_lineage_replies_are_remote_errors() {
    use std::io::Write;

    // A scripted peer: it completes the handshake, answers existence checks
    // honestly, and answers each lineage request with the hostile reply its
    // requested id names. It serves exactly one connection.
    let good = json!({
        "model": "m-1", "parent": null, "approach": "baseline",
        "relation": "initial", "root_hash": "00",
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut version = WireVersion::V1;
        while let Ok((frame, _)) = read_frame_counted(&mut stream, version) {
            let asked = frame.header["id"].clone();
            let header = match (frame.opcode, asked.as_str().unwrap_or("")) {
                (Opcode::Hello, _) => {
                    json!({"version": mmlib_net::PROTOCOL_V2, "max_inflight": 64})
                }
                (Opcode::Ping, _) => json!({"version": mmlib_net::PROTOCOL_V2}),
                (Opcode::DocContains, _) => json!({"present": true}),
                (Opcode::LineageGet, "numeric-model") => {
                    json!({"id": asked, "record": {"model": 5}})
                }
                (Opcode::LineageGet, "no-record") => json!({"id": asked}),
                (Opcode::LineageAncestry, "bad-entry") => {
                    json!({"id": asked, "ancestry": [good.clone(), {"model": 5}]})
                }
                (Opcode::LineageAncestry, "not-a-list") => json!({"id": asked, "ancestry": "m-1"}),
                (other, id) => panic!("unscripted request {} {id}", other.name()),
            };
            let reply = Frame::new(Opcode::Ok, header).with_request_id(frame.request_id);
            stream.write_all(&encode_frame_v(&reply, version).unwrap()).unwrap();
            version = WireVersion::V2;
        }
    });

    let client = RemoteStore::builder(addr).pool_size(1).max_retries(0).build().unwrap();
    // Never a default record, never a panic: each reply fails its own
    // request as the peer's fault.
    let outcomes = [
        ("numeric-model", client.lineage_node("numeric-model").map(drop)),
        ("no-record", client.lineage_node("no-record").map(drop)),
        ("bad-entry", client.lineage_chain("bad-entry").map(drop)),
        ("not-a-list", client.lineage_chain("not-a-list").map(drop)),
    ];
    for (what, outcome) in outcomes {
        assert!(matches!(outcome, Err(StoreError::Remote(_))), "{what}: {outcome:?}");
    }
    // The connection is still healthy.
    assert!(client.contains_doc(&DocId::from_string("d-1".into())));
    drop(client);
    peer.join().unwrap();
}

#[test]
fn bad_chain_get_replies_fail_only_their_own_request() {
    use std::io::Write;

    // A scripted peer: it completes the handshake, answers existence checks
    // honestly, and answers each `ChainGet` with the hostile reply its tip
    // names, chunks included. It serves exactly one connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut version = WireVersion::V1;
        while let Ok((frame, _)) = read_frame_counted(&mut stream, version) {
            let tip = frame.header["id"].as_str().unwrap_or("").to_string();
            let (header, chunk) = match (frame.opcode, tip.as_str()) {
                (Opcode::Hello, _) => {
                    (json!({"version": mmlib_net::PROTOCOL_V2, "max_inflight": 64}), None)
                }
                (Opcode::Ping, _) => (json!({"version": mmlib_net::PROTOCOL_V2}), None),
                (Opcode::DocContains, _) => (json!({"present": true}), None),
                // Three bytes listed, four announced and streamed.
                (Opcode::ChainGet, "short-list") => (
                    json!({"docs": [], "files": [{"id": "f-1", "len": 3}], "len": 4}),
                    Some(vec![1u8, 2, 3, 4]),
                ),
                (Opcode::ChainGet, "kindless-doc") => (
                    json!({"docs": [{"id": "d-1", "body": {}}], "files": [], "len": 0}),
                    None,
                ),
                (other, tip) => panic!("unscripted request {} {tip}", other.name()),
            };
            let reply = Frame::new(Opcode::Ok, header).with_request_id(frame.request_id);
            stream.write_all(&encode_frame_v(&reply, version).unwrap()).unwrap();
            if let Some(bytes) = chunk {
                let chunk = Frame::with_payload(Opcode::Chunk, json!({}), Bytes::from(bytes))
                    .with_request_id(frame.request_id);
                stream.write_all(&encode_frame_v(&chunk, version).unwrap()).unwrap();
            }
            version = WireVersion::V2;
        }
    });

    let client = RemoteStore::builder(addr).pool_size(1).max_retries(0).build().unwrap();
    for tip in ["short-list", "kindless-doc"] {
        let tip = SavedModelId(DocId::from_string(tip.into()));
        let outcome = client.recovery_reads(&tip, 8).unwrap();
        assert!(matches!(outcome, Err(StoreError::Remote(_))), "{tip}: {outcome:?}");
    }
    // The connection is still healthy.
    assert!(client.contains_doc(&DocId::from_string("d-1".into())));
    drop(client);
    peer.join().unwrap();
}

#[test]
fn failed_request_write_fails_fast_and_the_next_request_reconnects() {
    use std::io::Write;

    // A scripted peer: on its first connection it answers the handshake
    // and the ping, reads one `FilePut` announcement and closes with the
    // blob unread, so the client's write fails mid-blob. Its second
    // connection answers the handshake and existence checks.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            let mut version = WireVersion::V1;
            while let Ok((frame, _)) = read_frame_counted(&mut stream, version) {
                let header = match frame.opcode {
                    Opcode::Hello => {
                        json!({"version": mmlib_net::PROTOCOL_V2, "max_inflight": 64})
                    }
                    Opcode::Ping => json!({"version": mmlib_net::PROTOCOL_V2}),
                    Opcode::FilePut => break,
                    Opcode::DocContains => json!({"present": true}),
                    other => panic!("unscripted request {}", other.name()),
                };
                let reply = Frame::new(Opcode::Ok, header).with_request_id(frame.request_id);
                stream.write_all(&encode_frame_v(&reply, version).unwrap()).unwrap();
                version = WireVersion::V2;
            }
        }
    });

    let client = RemoteStore::builder(addr).pool_size(1).max_retries(0).build().unwrap();
    // Far more than loopback socket buffers absorb, so the write is still
    // going when the peer hangs up.
    let blob = vec![7u8; 32 << 20];
    let asked = std::time::Instant::now();
    let err = client.put_file(&blob).unwrap_err();
    assert!(asked.elapsed() < std::time::Duration::from_secs(10), "{err}");

    // The dead connection left the pool: this request opens a fresh one,
    // which the peer accepts as its second.
    assert!(client.contains_doc(&DocId::from_string("d-1".into())));
    drop(client);
    peer.join().unwrap();
}
