//! High-client-count stress: many threads share one `RemoteStore` pool of
//! a few connections, each served on its own server thread, and at
//! quiescence the books must balance exactly — zero lost or misrouted
//! responses, and the client's raw wire counters equal to the byte to the
//! server's.
//!
//! `MMLIB_STRESS_CLIENTS` scales the thread count; `scripts/check.sh` runs
//! this at 512 in release mode, the default stays modest so plain
//! `cargo test` is fast.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mmlib_net::{Opcode, RegistryServer, RemoteStore, ServerConfig};
use mmlib_store::{ModelStorage, StorageBackend};
use serde_json::json;

fn thread_count() -> usize {
    std::env::var("MMLIB_STRESS_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(64)
}

/// Deterministic per-thread content; lengths straddle the 64 KiB chunk
/// boundary so both single-chunk and multi-chunk transfers are in play.
fn blob_for(thread: usize) -> Vec<u8> {
    let len = 63_000 + (thread % 8) * 1_000;
    (0..len).map(|i| ((i * 31 + thread * 257 + 11) % 256) as u8).collect()
}

#[test]
fn hundreds_of_concurrent_clients_lose_and_misroute_nothing() {
    let clients = thread_count();
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    let server = RegistryServer::bind(storage, "127.0.0.1:0").unwrap();

    // One shared store: every thread takes turns on the same small
    // connection pool, so responses are only correct if each exchange reads
    // exactly its own reply.
    let store = Arc::new(
        RemoteStore::builder(server.addr())
            .pool_size(8)
            .max_retries(8)
            .read_timeout(Some(Duration::from_secs(30)))
            .build()
            .unwrap(),
    );

    crossbeam::scope(|s| {
        for t in 0..clients {
            let store = Arc::clone(&store);
            s.spawn(move |_| {
                let blob = blob_for(t);
                let fid = store.put_file(&blob).unwrap();
                let did = store
                    .insert_doc("stress", json!({"thread": t as u64, "file": fid.as_str()}))
                    .unwrap();
                // Read back through the same shared pool: any misrouted
                // reply surfaces as another thread's bytes or document.
                let fetched = store.get_file(&fid).unwrap();
                assert_eq!(fetched, blob, "thread {t} got someone else's blob");
                let doc = store.get_doc(&did).unwrap();
                assert_eq!(doc.body["thread"], t as u64, "thread {t} got someone else's doc");
                assert_eq!(doc.body["file"], fid.as_str());
            });
        }
    })
    .unwrap();

    let metrics = server.metrics();
    let n = clients as u64;
    assert_eq!(metrics.requests(Opcode::FilePut), n);
    assert_eq!(metrics.requests(Opcode::FileGet), n);
    assert_eq!(metrics.requests(Opcode::DocInsert), n);
    assert_eq!(metrics.requests(Opcode::DocGet), n);

    // The request-latency histogram observed every dispatched request.
    let text = store.server_stats_text().unwrap();
    assert!(text.contains(&format!("mmlib_net_request_seconds_count{{opcode=\"file_put\"}} {n}")));
    assert!(text.contains(&format!("mmlib_net_request_seconds_count{{opcode=\"file_get\"}} {n}")));

    // The server takes a request off the in-flight gauge after writing its
    // reply, so the client can hold the last reply a moment before the
    // books close: poll (bounded), then assert.
    let deadline = Instant::now() + Duration::from_secs(2);
    while (metrics.inflight() != 0.0
        || metrics.bytes_in() != store.wire_bytes_out()
        || metrics.bytes_out() != store.wire_bytes_in())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Quiescence: nothing admitted is still in flight.
    assert_eq!(metrics.inflight(), 0.0);

    // Exact byte accounting. Both sides count raw socket traffic, so with
    // every response delivered the ledgers must agree to the byte — any
    // drift means a frame was dropped, duplicated, or half-written.
    assert_eq!(metrics.bytes_in(), store.wire_bytes_out(), "client→server bytes disagree");
    assert_eq!(metrics.bytes_out(), store.wire_bytes_in(), "server→client bytes disagree");
}

#[test]
fn load_shed_surfaces_as_a_clean_retryable_busy() {
    let dir = tempfile::tempdir().unwrap();
    let storage = ModelStorage::open(dir.path()).unwrap();
    // A budget of exactly one connection, which the first client holds.
    let server = RegistryServer::bind_with_config(
        storage,
        "127.0.0.1:0",
        ServerConfig { max_connections: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let metrics = Arc::clone(server.metrics());
    let first = RemoteStore::builder(server.addr()).pool_size(1).build().unwrap();
    first.insert_doc("first", json!({"k": 1})).unwrap();

    crossbeam::scope(|s| {
        // The second client's handshake is answered `Busy` while the first
        // is connected; it backs off and retries until the first drops.
        let addr = server.addr();
        let second = s.spawn(move |_| {
            let store = RemoteStore::builder(addr).pool_size(1).max_retries(10).build().unwrap();
            store.insert_doc("second", json!({"k": 2})).unwrap();
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.load_shed() == 0 {
            assert!(Instant::now() < deadline, "the connection budget never shed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(first);
        second.join().unwrap();
    })
    .unwrap();

    // Busy is transport flow control, not an application request: the shed
    // client connected again once the first had left, and both committed.
    assert!(metrics.load_shed() >= 1);
    assert_eq!(metrics.requests(Opcode::Busy), 0, "Busy must never be counted as a request");
    assert_eq!(metrics.connections(), 2, "a refused connection is not a served one");
    assert_eq!(metrics.requests(Opcode::DocInsert), 2);
    let direct = ModelStorage::open(dir.path()).unwrap();
    assert_eq!(direct.doc_ids().unwrap().len(), 2);
}
