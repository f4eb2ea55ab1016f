//! The handshake is the only way in: a connection's first frame must be
//! the id-less `Hello {"version": 2}`, anything else is refused cleanly —
//! an id-less `version_mismatch` error, then EOF, never a hang or a garbage
//! frame — before it can reach admission, a worker or the store. After the
//! handshake every frame carries a request id and `Hello` is an error.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use bytes::Bytes;
use mmlib_net::protocol::{encode_frame_v, read_frame_counted, WireError};
use mmlib_net::{Frame, Opcode, RegistryServer, RemoteStore, WireVersion, PROTOCOL_V2};
use mmlib_store::{ModelStorage, StorageBackend};
use serde_json::json;

fn server(dir: &std::path::Path) -> RegistryServer {
    let storage = ModelStorage::open(dir).unwrap();
    RegistryServer::bind(storage, "127.0.0.1:0").unwrap()
}

fn send(stream: &mut TcpStream, frame: &Frame, version: WireVersion) {
    stream.write_all(&encode_frame_v(frame, version).unwrap()).unwrap();
}

fn recv(stream: &mut TcpStream, version: WireVersion) -> Result<Frame, WireError> {
    read_frame_counted(stream, version).map(|(frame, _)| frame)
}

/// Opens a raw connection and completes the handshake on it.
fn handshaken(server: &RegistryServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let hello = Frame::new(Opcode::Hello, json!({"version": PROTOCOL_V2}));
    send(&mut stream, &hello, WireVersion::V1);
    let reply = recv(&mut stream, WireVersion::V1).unwrap();
    assert_eq!(reply.opcode, Opcode::Ok);
    assert_eq!(reply.header["version"], u64::from(PROTOCOL_V2));
    stream
}

#[test]
fn unknown_version_handshake_is_rejected_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    send(&mut stream, &Frame::new(Opcode::Hello, json!({"version": 99})), WireVersion::V1);

    // The rejection is id-less (the only framing an unknown client is
    // guaranteed to parse) and names the one version spoken.
    let reply = recv(&mut stream, WireVersion::V1).unwrap();
    assert_eq!(reply.opcode, Opcode::Err);
    assert_eq!(reply.header["code"], "version_mismatch");
    let detail = reply.header["message"].as_str().unwrap();
    assert!(detail.contains(&format!("version {PROTOCOL_V2} only")), "{detail}");
    assert!(detail.contains("99"), "{detail}");

    // Then the server hangs up: a clean EOF, not a stalled socket.
    assert!(matches!(recv(&mut stream, WireVersion::V1), Err(WireError::Closed)));
}

#[test]
fn a_first_frame_other_than_hello_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let metrics = server.metrics();

    // What a v1 client would have opened with, a request that would have
    // touched the store, and a handshake for the version no longer spoken.
    for first in [
        Frame::new(Opcode::Ping, json!({"version": 1})),
        Frame::new(Opcode::DocIds, json!({})),
        Frame::new(Opcode::Hello, json!({"version": 1})),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        send(&mut stream, &first, WireVersion::V1);
        let reply = recv(&mut stream, WireVersion::V1).unwrap();
        assert_eq!(reply.opcode, Opcode::Err, "{first:?}");
        assert_eq!(reply.header["code"], "version_mismatch", "{first:?}");
        assert!(matches!(recv(&mut stream, WireVersion::V1), Err(WireError::Closed)));
    }

    // Nothing got past the I/O thread: no request was counted, admitted or
    // shed, and the store was never asked anything.
    assert_eq!(metrics.connections(), 3);
    assert_eq!(metrics.total_requests(), 0);
    assert_eq!(metrics.inflight(), 0.0);
    assert_eq!(metrics.load_shed(), 0);
    let direct = ModelStorage::open(dir.path()).unwrap();
    assert!(direct.doc_ids().unwrap().is_empty());

    // A refusal is per connection: the next well-behaved client is served.
    let client = RemoteStore::builder(server.addr()).pool_size(1).build().unwrap();
    assert!(client.doc_ids().unwrap().is_empty());
}

#[test]
fn hello_after_the_handshake_is_a_protocol_error() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let mut stream = handshaken(&server);

    let ping = Frame::new(Opcode::Ping, json!({"version": PROTOCOL_V2})).with_request_id(1);
    send(&mut stream, &ping, WireVersion::V2);
    let pong = recv(&mut stream, WireVersion::V2).unwrap();
    assert_eq!((pong.opcode, pong.request_id), (Opcode::Ok, 1));

    // Renegotiating mid-stream would desynchronise framing; the server
    // refuses and closes.
    let again = Frame::new(Opcode::Hello, json!({"version": PROTOCOL_V2})).with_request_id(2);
    send(&mut stream, &again, WireVersion::V2);
    let reply = recv(&mut stream, WireVersion::V2).unwrap();
    assert_eq!((reply.opcode, reply.request_id), (Opcode::Err, 2));
    assert_eq!(reply.header["code"], "protocol");
    assert!(matches!(recv(&mut stream, WireVersion::V2), Err(WireError::Closed)));
    assert_eq!(server.metrics().requests(Opcode::Hello), 1, "only the handshake counts");
}

/// Polls `cond` until it holds or a generous deadline passes.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn dead_uploads_release_their_admission_budget() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let metrics = server.metrics();

    // Leak path one: a connection announces an upload, streams a partial
    // chunk, and vanishes. The transfer was admitted at announce time but
    // can never dispatch; reaping the socket must hand its unit of the
    // admission budget back.
    let mut stream = handshaken(&server);
    let announce = Frame::new(Opcode::FilePut, json!({"len": 200_000u64})).with_request_id(7);
    send(&mut stream, &announce, WireVersion::V2);
    let chunk = Frame::with_payload(Opcode::Chunk, json!({}), Bytes::from(vec![0xAB; 1_000]))
        .with_request_id(7);
    send(&mut stream, &chunk, WireVersion::V2);
    wait_for("the upload to be admitted", || metrics.inflight() >= 1.0);
    drop(stream);
    wait_for("the dropped connection to release its budget", || metrics.inflight() == 0.0);

    // Leak path two: a chunk overrunning its announced length kills the
    // transfer (and the connection) server-side — same obligation.
    let mut stream = handshaken(&server);
    let announce = Frame::new(Opcode::FilePut, json!({"len": 10u64})).with_request_id(1);
    send(&mut stream, &announce, WireVersion::V2);
    let overrun = Frame::with_payload(Opcode::Chunk, json!({}), Bytes::from(vec![1u8; 64]))
        .with_request_id(1);
    send(&mut stream, &overrun, WireVersion::V2);
    let reply = recv(&mut stream, WireVersion::V2).unwrap();
    assert_eq!(reply.opcode, Opcode::Err);
    assert_eq!(reply.header["code"], "protocol");
    wait_for("the overrun transfer to release its budget", || metrics.inflight() == 0.0);

    // The budget is genuinely back: a well-behaved client is admitted and
    // a full upload round-trips.
    let client = RemoteStore::builder(server.addr()).pool_size(1).build().unwrap();
    let blob = vec![9u8; 100_000];
    let id = client.put_file(&blob).unwrap();
    assert_eq!(client.get_file(&id).unwrap(), blob);
    assert_eq!(metrics.load_shed(), 0, "nothing should have been shed");
}

#[test]
fn a_connection_past_the_budget_gets_busy_then_eof() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    let config = mmlib_net::ServerConfig { max_connections: 2, ..Default::default() };
    let server = RegistryServer::bind_with_config(storage, "127.0.0.1:0", config).unwrap();
    let metrics = server.metrics();

    let first = handshaken(&server);
    let _second = handshaken(&server);

    // The third is refused in place of its `Hello` reply, in the same
    // id-less framing, then closed.
    let mut third = TcpStream::connect(server.addr()).unwrap();
    send(&mut third, &Frame::new(Opcode::Hello, json!({"version": PROTOCOL_V2})), WireVersion::V1);
    let reply = recv(&mut third, WireVersion::V1).unwrap();
    assert_eq!(reply.opcode, Opcode::Busy);
    assert!(reply.header["retry_after_ms"].as_u64().is_some(), "{:?}", reply.header);
    assert!(matches!(recv(&mut third, WireVersion::V1), Err(WireError::Closed)));
    assert_eq!(metrics.load_shed(), 1);
    assert_eq!(metrics.connections(), 2, "the refused connection was never served");

    // Once one of the two leaves, its place is free for a new client.
    drop(first);
    let client = RemoteStore::builder(server.addr()).pool_size(1).build().unwrap();
    assert!(client.doc_ids().unwrap().is_empty());
    assert_eq!(metrics.connections(), 3);
}

/// Shuts `server` down on another thread and returns how long it took,
/// failing if it takes far longer than the poll interval it waits on.
fn timed_shutdown(mut server: RegistryServer) -> std::time::Duration {
    let started = std::time::Instant::now();
    let done = std::thread::spawn(move || server.shutdown());
    while !done.is_finished() {
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "shutdown hung");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    started.elapsed()
}

#[test]
fn shutdown_does_not_wait_for_an_idle_connection() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let _idle = handshaken(&server);
    let took = timed_shutdown(server);
    assert!(took < std::time::Duration::from_secs(2), "shutdown took {took:?}");
}

#[test]
fn shutdown_does_not_wait_for_a_stalled_upload() {
    let dir = tempfile::tempdir().unwrap();
    let server = server(dir.path());
    let metrics = Arc::clone(server.metrics());
    // A peer announces an upload, sends part of it and then stalls.
    let mut stream = handshaken(&server);
    let announce = Frame::new(Opcode::FilePut, json!({"len": 200_000u64})).with_request_id(1);
    send(&mut stream, &announce, WireVersion::V2);
    let chunk = Frame::with_payload(Opcode::Chunk, json!({}), Bytes::from(vec![0xAB; 1_000]))
        .with_request_id(1);
    send(&mut stream, &chunk, WireVersion::V2);
    wait_for("the upload to be admitted", || metrics.inflight() >= 1.0);

    let took = timed_shutdown(server);
    assert!(took < std::time::Duration::from_secs(2), "shutdown took {took:?}");
    assert_eq!(metrics.inflight(), 0.0, "the cut-short upload is no longer in flight");
    // The server hung up on the stalled peer without answering it: EOF, or
    // a reset when the close found bytes of the chunk still unread.
    let after = recv(&mut stream, WireVersion::V2);
    assert!(matches!(after, Err(WireError::Closed | WireError::Io(_))), "{after:?}");
}
