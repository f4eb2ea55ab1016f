//! The model-registry server: a multiplexed TCP front-end over a
//! [`ModelStorage`].
//!
//! The paper's deployment keeps all model data on a central server (a
//! MongoDB plus a shared FS) that every node reads and writes over the
//! cluster network (§4.1). [`RegistryServer`] is that component, built for
//! the ROADMAP's "thousands of concurrent clients" north star:
//!
//! * a small set of **I/O threads** ([`WireConfig::io_threads`]) own every
//!   socket, running a nonblocking read/decode/write loop — a connection
//!   costs a buffer, not a thread (`io`);
//! * a connection must open with the `Hello` handshake of
//!   [`crate::protocol`]; until it has, nothing it sends gets past its I/O
//!   thread;
//! * **admission control** ([`AdmissionConfig`]) bounds in-flight requests
//!   per connection and globally; an over-budget request is answered with
//!   an [`Opcode::Busy`](crate::Opcode::Busy) frame instead of queueing
//!   without bound, and the connection stays healthy. The in-flight budget
//!   also bounds each connection's outbound queue, which is why no write
//!   timeout is needed (`admission`);
//! * admitted requests are dispatched to **sharded worker pools**
//!   ([`ShardConfig::workers`]) keyed by the model/document/file id in the
//!   request header, so requests naming the same model execute in arrival
//!   order on one shard while different models proceed in parallel
//!   (`handlers`).
//!
//! Per-opcode request counts and byte counters are recorded so distributed
//! experiments can report *measured* transfer volume instead of modeled
//! volume; `bytes_in`/`bytes_out` count raw socket bytes, exactly
//! (`metrics`).

mod admission;
mod config;
mod handlers;
mod io;
mod metrics;

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mmlib_obs::Recorder;
use mmlib_store::ModelStorage;

pub use config::{AdmissionConfig, ConfigError, ServerConfig, ShardConfig, WireConfig};
pub use metrics::{
    ServerMetrics, NET_BYTES_IN_TOTAL, NET_BYTES_OUT_TOTAL, NET_CONNECTIONS_TOTAL,
    NET_INFLIGHT_REQUESTS, NET_LOAD_SHED_TOTAL, NET_REQUESTS_TOTAL, NET_REQUEST_SECONDS,
};

use crate::fault::NetFaults;

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

    /// Binds with explicit tuning knobs.
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
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("mmlib-registry-{addr}"))
                .spawn(move || serve(listener, storage, config, metrics, stop))?
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

    /// Stops accepting, drains in-flight requests and queued responses
    /// (bounded by a short grace period for stalled peers), joins all
    /// threads.
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

/// Shared server state every I/O thread and worker sees.
struct ServerState {
    storage: ModelStorage,
    metrics: Arc<ServerMetrics>,
    admission: AdmissionConfig,
    faults: Option<Arc<NetFaults>>,
    global_inflight: AtomicUsize,
}

/// Supervisor: accept loop + I/O threads + shard workers under one scope.
fn serve(
    listener: TcpListener,
    storage: ModelStorage,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
) {
    let state = Arc::new(ServerState {
        storage,
        metrics: Arc::clone(&metrics),
        admission: config.admission.clone(),
        faults: config.faults.clone(),
        global_inflight: AtomicUsize::new(0),
    });

    let result = crossbeam::scope(|s| {
        // Shard workers: one FIFO queue each. Requests are routed by id
        // hash, so a queue is a per-model serialization point.
        let mut shard_txs = Vec::with_capacity(config.shards.workers);
        for _ in 0..config.shards.workers {
            let (tx, rx) = crossbeam::channel::unbounded::<admission::Job>();
            shard_txs.push(tx);
            let state = Arc::clone(&state);
            s.spawn(move |_| {
                while let Ok(job) = rx.recv() {
                    handlers::run_job(&state, job);
                }
            });
        }

        // I/O threads: each adopts connections from its intake channel
        // and multiplexes them with a nonblocking event loop.
        let mut intakes = Vec::with_capacity(config.wire.io_threads);
        for _ in 0..config.wire.io_threads {
            let (intake_tx, intake) = mpsc::channel::<TcpStream>();
            intakes.push(intake_tx);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let shard_txs = shard_txs.clone();
            let idle_timeout = config.wire.idle_timeout;
            s.spawn(move |_| io::io_loop(&state, &intake, &shard_txs, idle_timeout, &stop));
        }
        // The supervisor's own senders must drop so workers exit when the
        // I/O threads do.
        drop(shard_txs);

        // Accept loop: pin each connection to an I/O thread round-robin.
        let mut next_io = 0usize;
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Fault hook: a scheduled accept fault closes the
                    // connection before it is served — the transient
                    // ECONNRESET of a restarting registry. Clients survive
                    // it through their retry loop.
                    if let Some(faults) = &state.faults {
                        if faults.on_accept().is_some() {
                            drop(stream);
                            continue;
                        }
                    }
                    // A send fails only once that I/O thread has exited,
                    // and then the connection just closes.
                    let _ = intakes[next_io % intakes.len()].send(stream);
                    next_io = next_io.wrapping_add(1);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => break,
            }
        }
    });
    // A thread panic (already reported on its own thread) surfaces here
    // after the scope joins. The server is tearing down at this point, so
    // note it instead of re-panicking into the joining thread.
    if result.is_err() {
        eprintln!("mmlib-net: a registry thread panicked; server shut down");
    }
}
