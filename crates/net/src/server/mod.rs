//! The model-registry server: a TCP front-end over a [`ModelStorage`].
//!
//! The paper's deployment keeps all model data on a central server (a
//! MongoDB plus a shared FS) that every node reads and writes over the
//! cluster network (§4.1). [`RegistryServer`] is that component, built the
//! way that MongoDB serves its clients: one thread per connection.
//!
//! * an **accept thread** admits up to [`ServerConfig::max_connections`]
//!   connections at once and gives each a thread of its own; a connection
//!   past the budget gets an [`Opcode::Busy`](crate::Opcode::Busy) reply to
//!   its `Hello` and is closed, and the client backs off and retries;
//! * a **connection thread** does the `Hello` handshake of
//!   [`crate::protocol`], then reads one request (and, for an upload, its
//!   chunks), answers it from storage, and writes the reply straight to
//!   the socket before it reads the next (`conn`, `handlers`). So a
//!   connection has one request in flight, and its requests run in the
//!   order they were sent.
//!
//! Per-opcode request counts and byte counters are recorded so distributed
//! experiments can report *measured* transfer volume instead of modeled
//! volume; `bytes_in`/`bytes_out` count raw socket bytes, exactly, but for
//! the unsent rest of a reply to a peer that vanished mid-write
//! (`metrics`).

mod config;
mod conn;
mod handlers;
mod metrics;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mmlib_obs::Recorder;
use mmlib_store::ModelStorage;

pub use config::{ConfigError, ServerConfig};
pub use metrics::{
    ServerMetrics, NET_BYTES_IN_TOTAL, NET_BYTES_OUT_TOTAL, NET_CONNECTIONS_TOTAL,
    NET_INFLIGHT_REQUESTS, NET_LOAD_SHED_TOTAL, NET_REQUESTS_TOTAL, NET_REQUEST_SECONDS,
};

use crate::fault::NetFaults;
use crate::protocol::{encode_frame_v, WireVersion};

/// Backoff hint carried in `Busy` replies, in milliseconds.
const RETRY_AFTER_MS: u64 = 25;

/// How long a refused connection's `Hello` is waited for, so that closing
/// the socket does not reset it before the peer reads the refusal.
const REFUSAL_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A running registry server; shuts down on [`RegistryServer::shutdown`] or
/// drop.
pub struct RegistryServer {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RegistryServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `storage` with the default config.
    pub fn bind(storage: ModelStorage, addr: impl ToSocketAddrs) -> std::io::Result<RegistryServer> {
        RegistryServer::bind_with_config(storage, addr, ServerConfig::default())
    }

    /// Binds with explicit settings.
    pub fn bind_with_config(
        storage: ModelStorage,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<RegistryServer> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        // The accept loop polls so the shutdown flag is honoured promptly.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let recorder =
            config.recorder.clone().unwrap_or_else(|| Arc::new(Recorder::new()));
        let metrics = Arc::new(ServerMetrics::new(recorder));
        let stop = Arc::new(AtomicBool::new(false));

        let thread = {
            let state = ServerState {
                storage,
                metrics: Arc::clone(&metrics),
                faults: config.faults.clone(),
                idle_timeout: config.idle_timeout,
                stop: Arc::clone(&stop),
            };
            std::thread::Builder::new()
                .name(format!("mmlib-registry-{addr}"))
                .spawn(move || accept_loop(&listener, &state, config.max_connections))?
        };

        Ok(RegistryServer { addr, metrics, stop, thread: Some(thread) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live request/byte counters.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Stops accepting and joins every thread. Each connection finishes
    /// the request it is serving, then closes; one waiting for bytes closes
    /// within a poll interval.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What every connection thread shares.
struct ServerState {
    storage: ModelStorage,
    metrics: Arc<ServerMetrics>,
    faults: Option<Arc<NetFaults>>,
    idle_timeout: Option<Duration>,
    stop: Arc<AtomicBool>,
}

/// A connection's place in the `max_connections` budget. Only
/// [`Admission::take`] makes one, and dropping it gives the place back, so
/// a connection releases it however its thread ends.
struct Admission<'a> {
    live: &'a AtomicUsize,
}

impl<'a> Admission<'a> {
    /// A place in the budget, or `None` when `max` connections are live.
    fn take(live: &'a AtomicUsize, max: usize) -> Option<Admission<'a>> {
        live.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < max).then_some(n + 1))
            .ok()
            .map(|_| Admission { live })
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accepts connections until the stop flag is set, serving each admitted
/// one on a scoped thread of its own; returns once all of them are done.
fn accept_loop(listener: &TcpListener, state: &ServerState, max_connections: usize) {
    let live = AtomicUsize::new(0);
    std::thread::scope(|s| {
        while !state.stop.load(Ordering::SeqCst) {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(_) => break,
            };
            // Fault hook: a scheduled accept fault closes the connection
            // before it is served — the transient ECONNRESET of a
            // restarting registry. Clients survive it through their retry
            // loop.
            if state.faults.as_ref().is_some_and(|faults| faults.on_accept().is_some()) {
                continue;
            }
            let Some(admission) = Admission::take(&live, max_connections) else {
                refuse(stream, &state.metrics);
                continue;
            };
            state.metrics.connections.add(1);
            // The handle is dropped: the thread is reaped when it ends, and
            // the scope still waits for it. A failed spawn drops the
            // closure, and the socket and admission with it.
            let _ = std::thread::Builder::new()
                .name("mmlib-registry-conn".to_string())
                .spawn_scoped(s, move || {
                    let _admission = admission;
                    conn::serve(state, stream);
                });
        }
    });
}

/// Answers a connection past the budget: `Busy` in place of its `Hello`
/// reply, in the handshake's id-less framing, then close. The peer's
/// `Hello` is read first (briefly), so that closing does not reset the
/// connection before the refusal is read.
fn refuse(mut stream: TcpStream, metrics: &ServerMetrics) {
    metrics.load_shed.add(1);
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(REFUSAL_READ_TIMEOUT)).is_err()
    {
        return;
    }
    if let Ok(n) = stream.read(&mut [0u8; 256]) {
        metrics.bytes_in.add(n as u64);
    }
    let busy = handlers::busy_frame(RETRY_AFTER_MS);
    if let Ok(encoded) = encode_frame_v(&busy, WireVersion::V1) {
        metrics.bytes_out.add(encoded.len() as u64);
        let _ = stream.write_all(&encoded);
    }
}
