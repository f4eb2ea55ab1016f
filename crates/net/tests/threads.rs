//! A connection's server thread ends with the connection. Closed
//! connections are reaped as they go, not held until shutdown, and a
//! `RemoteStore` starts no thread of its own.
//!
//! This counts the threads of the whole test process, so it is a test
//! binary of its own: no other test may run beside it.

use std::time::{Duration, Instant};

use mmlib_net::{RegistryServer, RemoteStore};
use mmlib_store::{ModelStorage, StorageBackend};

/// The process's thread count, from `/proc/self/status`; `None` where
/// there is no `/proc`.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// Polls until the process runs `n` threads, failing after a generous
/// deadline.
fn wait_for_threads(n: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != Some(n) {
        assert!(Instant::now() < deadline, "{what}: {:?} threads, expected {n}", threads());
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn closed_connections_leave_no_thread_behind() {
    if threads().is_none() {
        eprintln!("skipped: no /proc/self/status to count threads with");
        return;
    }
    let dir = tempfile::tempdir().unwrap();
    let server = RegistryServer::bind(ModelStorage::open(dir.path()).unwrap(), "127.0.0.1:0")
        .unwrap();
    let start = threads().unwrap();

    for i in 0..200 {
        let client = RemoteStore::builder(server.addr()).pool_size(1).build().unwrap();
        assert!(client.doc_ids().unwrap().is_empty());
        if i % 50 == 0 {
            // While a client is connected, the one thread it added is its
            // connection's, on the server.
            wait_for_threads(start + 1, "one client open");
        }
    }
    wait_for_threads(start, "every client dropped");
    assert_eq!(server.metrics().connections(), 200);
}
