//! The remote store client: [`mmlib_store::StorageBackend`] over TCP.
//!
//! [`RemoteStore`] speaks the wire protocol of [`crate::protocol`] to a
//! [`crate::RegistryServer`] and implements the same document/file surface
//! as local storage, so the whole save/recover stack runs unmodified
//! against a registry across the network — the paper's node/server split
//! (§4.1).
//!
//! Connections come from a small **pool** with **request pipelining**: each
//! pooled socket opens with the `Hello` handshake, a dedicated reader
//! thread demultiplexes responses by frame id, and any number of caller
//! threads share the pool concurrently — family recovery and the dist
//! flows no longer pay per-request connection latency. Requests are
//! retried with exponential backoff plus jitter on connection failure, and
//! a server `Busy` load-shed answer is just another retryable outcome (the
//! connection stays up).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;
use mmlib_obs::Gauge;
use mmlib_store::schema::{LineageRecordDoc, RecoveryReads, SavedModelId};
use mmlib_store::{DocId, Document, FileId, ModelStorage, StorageBackend, StoreError};
use parking_lot::Mutex;
use serde_json::{json, Value};

use crate::protocol::{
    chunk_frames, decode_chain_reply, encode_frame_prefix, header_str, header_u64,
    read_frame_counted, reply_parts, BlobAssembler, Frame, Opcode, RecvBuf, WireError, WireVersion,
    PROTOCOL_V2,
};

/// Gauge of currently open pooled client connections (process-wide).
pub const NET_POOL_CONNECTIONS: &str = "mmlib_net_pool_connections";

/// Client tuning knobs, set through [`RemoteStore::builder`].
#[derive(Debug, Clone)]
pub(crate) struct ClientConfig {
    /// Attempts per request beyond the first (0 = fail fast).
    pub max_retries: u32,
    /// How long a caller waits for its pipelined reply (None = forever).
    pub read_timeout: Option<Duration>,
    /// Pooled connections; callers round-robin across them.
    pub pool_size: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { max_retries: 3, read_timeout: Some(Duration::from_secs(30)), pool_size: 2 }
    }
}

/// Configures and opens a [`RemoteStore`]. Obtained from
/// [`RemoteStore::builder`].
#[derive(Debug)]
pub struct RemoteStoreBuilder {
    addr: Result<SocketAddr, StoreError>,
    config: ClientConfig,
}

impl RemoteStoreBuilder {
    /// Pooled connections the client multiplexes requests over.
    pub fn pool_size(mut self, n: usize) -> RemoteStoreBuilder {
        self.config.pool_size = n;
        self
    }

    /// Attempts per request beyond the first (0 = fail fast).
    pub fn max_retries(mut self, n: u32) -> RemoteStoreBuilder {
        self.config.max_retries = n;
        self
    }

    /// How long a caller waits for its reply (None = forever).
    pub fn read_timeout(mut self, d: Option<Duration>) -> RemoteStoreBuilder {
        self.config.read_timeout = d;
        self
    }

    /// Opens the store and verifies the server answers in this build's
    /// protocol version, so misconfiguration fails here rather than at
    /// first use.
    pub fn build(self) -> Result<RemoteStore, StoreError> {
        let addr = self.addr?;
        let config = self.config;
        if config.pool_size == 0 {
            return Err(StoreError::Remote("pool_size must be at least 1".to_string()));
        }
        let pool = (0..config.pool_size).map(|_| Mutex::new(None)).collect();
        let store = RemoteStore {
            addr,
            config,
            pool,
            next_slot: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(1),
            jitter: Jitter::new(),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            wire_out: Arc::new(AtomicU64::new(0)),
            wire_in: Arc::new(AtomicU64::new(0)),
            pool_gauge: mmlib_obs::recorder().gauge(NET_POOL_CONNECTIONS, None),
        };
        // Handshake one connection now; the rest open lazily on demand.
        let reply = store.request(Frame::new(Opcode::Ping, json!({"version": PROTOCOL_V2})))?;
        let version = header_u64(&expect_ok(reply)?, "version").map_err(remote)?;
        if version != u64::from(PROTOCOL_V2) {
            return Err(StoreError::Remote(format!(
                "server speaks protocol version {version}, client speaks {PROTOCOL_V2}"
            )));
        }
        Ok(store)
    }
}

/// A pooled, pipelined client for a registry server, usable as a storage
/// backend.
///
/// One `RemoteStore` holds [`RemoteStoreBuilder::pool_size`] TCP connections and
/// is safe to share across any number of threads — callers round-robin
/// over the pool and concurrent requests on one socket are correlated by
/// frame id. Wrap it in an `Arc` directly, or hand the whole stack a
/// [`ModelStorage`] via [`RemoteStore::into_storage`].
pub struct RemoteStore {
    addr: SocketAddr,
    config: ClientConfig,
    /// One slot per pooled connection; each opens on first use.
    pool: Vec<Mutex<Option<Arc<Conn>>>>,
    next_slot: AtomicUsize,
    next_request_id: AtomicU64,
    jitter: Jitter,
    /// Storage-semantic bytes (stored document/blob sizes), mirroring what
    /// a local backend would report — the paper's storage metric.
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Exact raw socket bytes, for reconciling against the server's
    /// `bytes_in`/`bytes_out` counters.
    wire_out: Arc<AtomicU64>,
    wire_in: Arc<AtomicU64>,
    pool_gauge: Arc<Gauge>,
}

impl RemoteStore {
    /// Starts building a client for the registry at `addr`.
    pub fn builder(addr: impl ToSocketAddrs) -> RemoteStoreBuilder {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| StoreError::Remote(format!("bad address: {e}")))
            .and_then(|mut addrs| {
                addrs
                    .next()
                    .ok_or_else(|| StoreError::Remote("address resolved to nothing".to_string()))
            });
        RemoteStoreBuilder { addr, config: ClientConfig::default() }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wraps this client into a [`ModelStorage`] the save/recover stack can
    /// use in place of a local directory.
    pub fn into_storage(self) -> ModelStorage {
        let descriptor = format!("tcp://{}", self.addr);
        ModelStorage::from_backend(Arc::new(self), descriptor)
    }

    /// Fetches the server's metrics snapshot, typed (the `Stats` opcode).
    pub fn stats(&self) -> Result<ServerStats, StoreError> {
        let reply = self.request(Frame::new(Opcode::Stats, json!({})))?;
        Ok(ServerStats::from_value(expect_ok(reply)?))
    }

    /// Fetches one model's lineage record (the `LineageGet` opcode): the
    /// record `LineageGraph::read` gives the model on the server.
    pub fn lineage_node(&self, id: &str) -> Result<LineageRecordDoc, StoreError> {
        let reply = self.request(Frame::new(Opcode::LineageGet, json!({"id": id})))?;
        reply_field(expect_ok(reply)?, "record", Opcode::LineageGet)
    }

    /// Fetches a model's ancestry, tip first (the `LineageAncestry`
    /// opcode).
    pub fn lineage_chain(&self, id: &str) -> Result<Vec<LineageRecordDoc>, StoreError> {
        let reply = self.request(Frame::new(Opcode::LineageAncestry, json!({"id": id})))?;
        reply_field(expect_ok(reply)?, "ancestry", Opcode::LineageAncestry)
    }

    /// Fetches the server's full metrics registry rendered in Prometheus
    /// text format (the `StatsText` opcode).
    pub fn server_stats_text(&self) -> Result<String, StoreError> {
        let header = self.request(Frame::new(Opcode::StatsText, json!({})))?.header;
        match header.get("text").and_then(Value::as_str) {
            Some(text) => Ok(text.to_string()),
            None => Err(StoreError::Remote("stats_text reply missing `text`".to_string())),
        }
    }

    /// Exact raw bytes this client has written to its sockets. At
    /// quiescence this equals the server's `bytes_in` for a server only
    /// this client talks to.
    pub fn wire_bytes_out(&self) -> u64 {
        self.wire_out.load(Ordering::Relaxed)
    }

    /// Exact raw bytes this client has read from its sockets (counterpart
    /// of the server's `bytes_out`).
    pub fn wire_bytes_in(&self) -> u64 {
        self.wire_in.load(Ordering::Relaxed)
    }

    /// Sends one request and reads its `Ok`/`Err` reply, retrying the whole
    /// exchange on connection failure or server load-shed with exponential
    /// backoff + jitter. An `Err` *reply* is a server-side answer, not a
    /// connection failure — it maps to a [`StoreError`] and is never
    /// retried.
    fn request(&self, frame: Frame) -> Result<Frame, StoreError> {
        self.request_blob(frame, None).map(|(reply, _)| reply)
    }

    /// Like [`RemoteStore::request`], also streaming `blob` after the
    /// request frame and reading the parts of any blob announced by the
    /// reply, each into its own buffer. The blob is a `Bytes` so retried
    /// attempts re-slice the same buffer instead of copying it.
    fn request_blob(
        &self,
        frame: Frame,
        blob: Option<Bytes>,
    ) -> Result<(Frame, Vec<Vec<u8>>), StoreError> {
        let mut attempt = 0u32;
        loop {
            // Every attempt gets a fresh frame id, so a late reply to a
            // timed-out attempt can never be mistaken for this one's.
            match self.try_exchange(&frame, blob.as_ref()) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let shed_hint = match e {
                        WireError::Busy(ms) => Some(Duration::from_millis(ms)),
                        _ => None,
                    };
                    if attempt >= self.config.max_retries {
                        return Err(StoreError::Remote(format!(
                            "request {} failed after {} attempts: {e}",
                            frame.opcode.name(),
                            attempt + 1
                        )));
                    }
                    let backoff = self.backoff(attempt);
                    std::thread::sleep(shed_hint.map_or(backoff, |hint| backoff.max(hint)));
                    attempt += 1;
                }
            }
        }
    }

    /// One exchange on a pooled connection (round-robin pick, lazily
    /// opened). All errors out of here are retryable: a wire failure has
    /// already marked its connection dead (the slot reopens on next use);
    /// `Busy` and a refused reply blob left it healthy.
    fn try_exchange(
        &self,
        frame: &Frame,
        blob: Option<&Bytes>,
    ) -> Result<(Frame, Vec<Vec<u8>>), WireError> {
        let slot = &self.pool[self.next_slot.fetch_add(1, Ordering::Relaxed) % self.pool.len()];
        let (reply, reply_blob) = self.exchange(slot, frame, blob)?;
        if reply.opcode == Opcode::Busy {
            let hint = reply.header.get("retry_after_ms").and_then(Value::as_u64).unwrap_or(0);
            return Err(WireError::Busy(hint));
        }
        // Storage-semantic accounting: payload bytes moved, as a local
        // backend would see them (headers are transport overhead).
        let sent = frame.payload.len() as u64 + blob.map_or(0, |b| b.len() as u64);
        let received = reply.payload.len() as u64
            + reply_blob.iter().map(|part| part.len() as u64).sum::<u64>();
        self.bytes_written.fetch_add(sent, Ordering::Relaxed);
        self.bytes_read.fetch_add(received, Ordering::Relaxed);
        Ok((reply, reply_blob))
    }

    /// Pipelined exchange: register the frame id, write, wait for the
    /// reader thread to hand back the correlated reply.
    fn exchange(
        &self,
        slot: &Mutex<Option<Arc<Conn>>>,
        frame: &Frame,
        blob: Option<&Bytes>,
    ) -> Result<(Frame, Vec<Vec<u8>>), WireError> {
        let conn = {
            let mut guard = slot.lock();
            match &*guard {
                Some(conn) if conn.alive.load(Ordering::Acquire) => Arc::clone(conn),
                _ => {
                    // Reconnecting under the slot lock is deliberate: it
                    // serializes handshakes, so racing callers share one
                    // connection instead of opening N.
                    let conn = self.open_conn()?;
                    *guard = Some(Arc::clone(&conn));
                    conn
                }
            }
        };

        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().insert(id, PendingEntry { tx, request: frame.opcode });

        let sent = frame.clone().with_request_id(id);
        let wrote = {
            let mut writer = conn.writer.lock();
            // The writer lock exists to serialize whole-frame writes on
            // the shared socket; I/O under it is the point.
            self.write_request(&mut *writer, &sent, blob, WireVersion::V2)
        };
        if let Err(e) = wrote {
            // The socket's framing state is unknown after a failed write:
            // fail every waiter; the slot reopens on its next use.
            conn.fail_all(&format!("write failed: {e}"));
            let _ = conn.writer.lock().shutdown(Shutdown::Both);
            return Err(e);
        }

        let event = match self.config.read_timeout {
            Some(timeout) => rx.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    // Leave the connection up: the reader discards the
                    // stale reply if it ever arrives.
                    conn.pending.lock().remove(&id);
                    WireError::Protocol(format!(
                        "timed out after {timeout:?} waiting for a reply"
                    ))
                }
                mpsc::RecvTimeoutError::Disconnected => {
                    WireError::Protocol("connection reader exited".to_string())
                }
            }),
            None => rx
                .recv()
                .map_err(|_| WireError::Protocol("connection reader exited".to_string())),
        };
        match event? {
            ConnEvent::Reply(reply, reply_blob) => Ok((reply, reply_blob)),
            ConnEvent::Failed(reason) => Err(WireError::Protocol(reason)),
        }
    }

    /// Writes one request frame (and its blob as chunk frames) to `w`,
    /// counting exact wire bytes. Chunk payloads are zero-copy slices of
    /// the request's one `Bytes` buffer — no per-attempt copy.
    fn write_request(
        &self,
        w: &mut impl Write,
        frame: &Frame,
        blob: Option<&Bytes>,
        version: WireVersion,
    ) -> Result<(), WireError> {
        let mut wrote = self.write_one(w, frame, version)?;
        if let Some(blob) = blob {
            for chunk in chunk_frames(frame.request_id, blob) {
                wrote += self.write_one(w, &chunk, version)?;
            }
        }
        w.flush()?;
        self.wire_out.fetch_add(wrote, Ordering::Relaxed);
        Ok(())
    }

    fn write_one(
        &self,
        w: &mut impl Write,
        frame: &Frame,
        version: WireVersion,
    ) -> Result<u64, WireError> {
        let prefix = encode_frame_prefix(frame, version)?;
        w.write_all(&prefix)?;
        w.write_all(&frame.payload)?;
        Ok((prefix.len() + frame.payload.len()) as u64)
    }

    /// Opens a socket, performs the `Hello` handshake (the one id-less
    /// frame pair of a session), then spawns the demultiplexing reader
    /// thread.
    fn open_conn(&self) -> Result<Arc<Conn>, WireError> {
        /// TCP connect timeout per attempt.
        const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
        /// Socket write timeout.
        const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let hello = Frame::new(Opcode::Hello, json!({"version": u64::from(PROTOCOL_V2)}));
        self.write_request(&mut &stream, &hello, None, WireVersion::V1)?;
        let (reply, n) = read_frame_counted(&mut &stream, WireVersion::V1)?;
        self.wire_in.fetch_add(n, Ordering::Relaxed);
        match reply.opcode {
            Opcode::Ok => {
                let agreed = header_u64(&reply.header, "version")
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                if agreed != u64::from(PROTOCOL_V2) {
                    return Err(WireError::Protocol(format!(
                        "handshake agreed on version {agreed}, expected {PROTOCOL_V2}"
                    )));
                }
            }
            _ => {
                let msg = reply
                    .header
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("handshake rejected");
                return Err(WireError::Protocol(format!("hello rejected: {msg}")));
            }
        }
        let reader_stream = stream.try_clone()?;
        // The reader polls so it can notice a locally-initiated close even
        // when the wire is silent.
        reader_stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        self.pool_gauge.add(1.0);
        {
            let reader_conn = Arc::clone(&conn);
            let wire_in = Arc::clone(&self.wire_in);
            let gauge = Arc::clone(&self.pool_gauge);
            std::thread::Builder::new()
                .name(format!("mmlib-client-{}", self.addr))
                .spawn(move || reader_loop(&reader_conn, reader_stream, &wire_in, &gauge))
                .map_err(|e| {
                    conn.alive.store(false, Ordering::Release);
                    self.pool_gauge.add(-1.0);
                    WireError::Io(e)
                })?;
        }
        Ok(conn)
    }

    /// An existence check (`DocContains` / `FileContains`); any failure
    /// reads as absent, as the backend trait has no error to return.
    fn contains(&self, op: Opcode, id: &str) -> bool {
        self.request(Frame::new(op, json!({"id": id})))
            .ok()
            .and_then(|reply| expect_ok(reply).ok())
            .and_then(|h| h.get("present").and_then(Value::as_bool))
            .unwrap_or(false)
    }

    /// An id listing (`DocIds` / `FileIds`), each entry wrapped by `wrap`.
    fn ids<T>(&self, op: Opcode, wrap: fn(String) -> T) -> Result<Vec<T>, StoreError> {
        let header = expect_ok(self.request(Frame::new(op, json!({})))?)?;
        let ids = header
            .get("ids")
            .and_then(Value::as_array)
            .ok_or_else(|| StoreError::Remote("ids reply missing list".to_string()))?;
        ids.iter()
            .map(|v| {
                v.as_str()
                    .map(|s| wrap(s.to_string()))
                    .ok_or_else(|| StoreError::Remote("non-string id in list".to_string()))
            })
            .collect()
    }

    fn backoff(&self, attempt: u32) -> Duration {
        /// Backoff before retry `n` is `BASE_BACKOFF * 2^n` plus jitter.
        const BASE_BACKOFF: Duration = Duration::from_millis(20);
        let base = BASE_BACKOFF * 2u32.saturating_pow(attempt);
        // Up to +50% jitter so clients retrying together spread out.
        base + base.mul_f64(self.jitter.next_fraction() * 0.5)
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        for slot in &self.pool {
            // Take the connection out first: failing the waiters and
            // closing the socket each take a lock of their own.
            let taken = slot.lock().take();
            if let Some(conn) = taken {
                conn.fail_all("client shut down");
                let _ = conn.writer.lock().shutdown(Shutdown::Both);
            }
        }
    }
}

/// A multiplexed connection: writers interleave under the lock, one
/// reader thread demultiplexes replies by frame id.
struct Conn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, PendingEntry>>,
    alive: AtomicBool,
}

struct PendingEntry {
    tx: mpsc::Sender<ConnEvent>,
    /// The request's opcode, which says whether its `Ok` reply announces a
    /// streamed blob ([`reply_parts`]).
    request: Opcode,
}

enum ConnEvent {
    /// The reply, with the parts of the blob it announced (none when it
    /// announced none).
    Reply(Frame, Vec<Vec<u8>>),
    Failed(String),
}

impl Conn {
    fn fail_all(&self, reason: &str) {
        self.alive.store(false, Ordering::Release);
        for (_, entry) in self.pending.lock().drain() {
            let _ = entry.tx.send(ConnEvent::Failed(reason.to_string()));
        }
    }
}

/// A reply blob mid-assembly on the reader thread.
struct Partial {
    frame: Frame,
    blob: BlobAssembler,
    tx: mpsc::Sender<ConnEvent>,
}

/// The per-connection reader: accumulate bytes, decode frames, route each
/// to the caller waiting on its frame id. Replies to ids nobody waits for
/// (a timed-out attempt's late answer) are discarded.
fn reader_loop(conn: &Conn, mut stream: TcpStream, wire_in: &AtomicU64, gauge: &Gauge) {
    let mut recv = RecvBuf::new();
    let mut partials: HashMap<u64, Partial> = HashMap::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let reason = 'conn: loop {
        if !conn.alive.load(Ordering::Acquire) {
            break "connection closed".to_string();
        }
        match stream.read(&mut scratch) {
            Ok(0) => break "server closed the connection".to_string(),
            Ok(n) => {
                wire_in.fetch_add(n as u64, Ordering::Relaxed);
                recv.extend(&scratch[..n]);
                loop {
                    match recv.next_frame(WireVersion::V2) {
                        Ok(None) => break,
                        Ok(Some(frame)) => route_reply(conn, frame, &mut partials),
                        Err(e) => break 'conn format!("protocol error: {e}"),
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => break format!("read failed: {e}"),
        }
    };
    conn.fail_all(&reason);
    gauge.add(-1.0);
}

/// Routes one decoded response frame on the reader thread.
fn route_reply(conn: &Conn, frame: Frame, partials: &mut HashMap<u64, Partial>) {
    let id = frame.request_id;
    match frame.opcode {
        Opcode::Chunk => {
            let Some(partial) = partials.get_mut(&id) else { return };
            let pushed = partial.blob.push(&frame.payload);
            if pushed.is_ok() && !partial.blob.is_complete() {
                return;
            }
            let Some(done) = partials.remove(&id) else { return };
            let _ = done.tx.send(match pushed {
                Ok(()) => ConnEvent::Reply(done.frame, done.blob.into_parts()),
                Err(e) => ConnEvent::Failed(e.to_string()),
            });
        }
        Opcode::Ok => {
            let Some(entry) = conn.pending.lock().remove(&id) else { return };
            let announced = reply_parts(entry.request, &frame.header)
                .and_then(|parts| parts.map(|lens| BlobAssembler::with_parts(&lens)).transpose());
            let event = match announced {
                Ok(None) => ConnEvent::Reply(frame, Vec::new()),
                // The server is trusted no further than any peer: an
                // over-long or inconsistent announcement fails this
                // request, and only it; its chunks are dropped unread.
                Err(e) => ConnEvent::Failed(e.to_string()),
                Ok(Some(blob)) if blob.is_complete() => {
                    ConnEvent::Reply(frame, blob.into_parts())
                }
                Ok(Some(blob)) => {
                    partials.insert(id, Partial { frame, blob, tx: entry.tx });
                    return;
                }
            };
            let _ = entry.tx.send(event);
        }
        Opcode::Err | Opcode::Busy => {
            partials.remove(&id);
            let Some(entry) = conn.pending.lock().remove(&id) else { return };
            let _ = entry.tx.send(ConnEvent::Reply(frame, Vec::new()));
        }
        // The server never sends request opcodes; a stray one is dropped
        // rather than poisoning every in-flight request on the socket.
        _ => {}
    }
}

/// The registry server's metrics snapshot, decoded from the `Stats` reply.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests served across all opcodes.
    pub total_requests: u64,
    /// Raw socket bytes the server received.
    pub bytes_in: u64,
    /// Raw socket bytes the server sent.
    pub bytes_out: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with `Busy` by admission control.
    pub load_shed: u64,
    /// Requests in flight when the snapshot was taken.
    pub inflight: u64,
    /// Per-opcode request counts, sorted by opcode name.
    pub requests_by_opcode: Vec<(String, u64)>,
    /// The undecoded snapshot, for fields this struct predates.
    pub raw: Value,
}

impl ServerStats {
    fn from_value(raw: Value) -> ServerStats {
        let get = |key: &str| raw.get(key).and_then(Value::as_u64).unwrap_or(0);
        let mut requests_by_opcode: Vec<(String, u64)> = Vec::new();
        if let Some(Value::Object(map)) = raw.get("requests") {
            for (name, count) in map {
                requests_by_opcode.push((name.clone(), count.as_u64().unwrap_or(0)));
            }
        }
        requests_by_opcode.sort();
        ServerStats {
            total_requests: get("total_requests"),
            bytes_in: get("bytes_in"),
            bytes_out: get("bytes_out"),
            connections: get("connections"),
            load_shed: get("load_shed"),
            inflight: get("inflight"),
            requests_by_opcode,
            raw,
        }
    }
}

/// Unwraps an `Ok` reply or maps an `Err` reply back to a [`StoreError`].
fn expect_ok(reply: Frame) -> Result<Value, StoreError> {
    match reply.opcode {
        Opcode::Ok => Ok(reply.header),
        Opcode::Err => {
            let code = reply.header.get("code").and_then(Value::as_str).unwrap_or("unknown");
            let message = reply
                .header
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("server error")
                .to_string();
            let id = reply.header.get("id").and_then(Value::as_str);
            match (code, id) {
                ("missing_document", Some(id)) => {
                    Err(StoreError::MissingDocument(DocId::from_string(id.to_string())))
                }
                ("missing_file", Some(id)) => {
                    Err(StoreError::MissingFile(FileId::from_string(id.to_string())))
                }
                _ => Err(StoreError::Remote(format!("{code}: {message}"))),
            }
        }
        other => Err(StoreError::Remote(format!(
            "unexpected reply opcode {}",
            other.name()
        ))),
    }
}

/// Bytes a document occupies in the registry's store. The server persists
/// `to_vec_pretty(&doc)`, so serializing the same document client-side gives
/// the identical size — keeping the paper's storage-consumption metric
/// transport-invariant (a save "costs" the same whether measured against a
/// local directory or through the wire).
fn doc_stored_bytes(doc: &Document) -> u64 {
    serde_json::to_vec_pretty(doc).map(|b| b.len() as u64).unwrap_or(0)
}

/// Decodes field `key` of an `Ok` reply's header. A reply that lacks it, or
/// whose value does not decode, is the peer's fault: [`StoreError::Remote`].
fn reply_field<T: serde::Deserialize>(
    header: Value,
    key: &str,
    op: Opcode,
) -> Result<T, StoreError> {
    let value = header
        .get(key)
        .cloned()
        .ok_or_else(|| StoreError::Remote(format!("{} reply missing `{key}`", op.name())))?;
    serde_json::from_value(value).map_err(|e| {
        StoreError::Remote(format!("{} reply has an undecodable `{key}`: {e}", op.name()))
    })
}

fn remote(e: WireError) -> StoreError {
    StoreError::Remote(e.to_string())
}

impl StorageBackend for RemoteStore {
    fn insert_doc(&self, kind: &str, body: Value) -> Result<DocId, StoreError> {
        let reply = self.request(Frame::new(
            Opcode::DocInsert,
            json!({"kind": kind, "body": body.clone()}),
        ))?;
        let header = expect_ok(reply)?;
        let id = DocId::from_string(header_str(&header, "id").map_err(remote)?.to_string());
        let doc = Document { id: id.clone(), kind: kind.to_string(), body };
        self.bytes_written.fetch_add(doc_stored_bytes(&doc), Ordering::Relaxed);
        Ok(id)
    }

    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        let reply = self.request(Frame::new(Opcode::DocGet, json!({"id": id.as_str()})))?;
        let header = expect_ok(reply)?;
        let body = header
            .get("body")
            .cloned()
            .ok_or_else(|| StoreError::Remote("doc reply missing body".to_string()))?;
        let doc = Document {
            id: DocId::from_string(header_str(&header, "id").map_err(remote)?.to_string()),
            kind: header_str(&header, "kind").map_err(remote)?.to_string(),
            body,
        };
        self.bytes_read.fetch_add(doc_stored_bytes(&doc), Ordering::Relaxed);
        Ok(doc)
    }

    fn update_doc(&self, id: &DocId, body: Value) -> Result<(), StoreError> {
        let reply = self.request(Frame::new(
            Opcode::DocUpdate,
            json!({"id": id.as_str(), "body": body.clone()}),
        ))?;
        let header = expect_ok(reply)?;
        // The reply carries the document's kind so the new stored size can
        // be accounted like a local write. (The update's internal re-read of
        // the old document is not mirrored — sizes of past versions are
        // unknown here — which only affects bytes_read, never the paper's
        // bytes_written storage metric.)
        if let Some(kind) = header.get("kind").and_then(Value::as_str) {
            let doc = Document { id: id.clone(), kind: kind.to_string(), body };
            self.bytes_written.fetch_add(doc_stored_bytes(&doc), Ordering::Relaxed);
        }
        Ok(())
    }

    fn contains_doc(&self, id: &DocId) -> bool {
        self.contains(Opcode::DocContains, id.as_str())
    }

    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        let reply = self.request(Frame::new(Opcode::DocRemove, json!({"id": id.as_str()})))?;
        expect_ok(reply).map(|_| ())
    }

    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.ids(Opcode::DocIds, DocId::from_string)
    }

    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        let announce = Frame::new(Opcode::FilePut, json!({"len": bytes.len() as u64}));
        // One copy at the trait boundary (the backend only lends a slice);
        // every attempt and chunk frame below slices this same buffer.
        let (reply, _) = self.request_blob(announce, Some(Bytes::copy_from_slice(bytes)))?;
        let header = expect_ok(reply)?;
        let id = header_str(&header, "id").map_err(remote)?;
        Ok(FileId::from_string(id.to_string()))
    }

    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        let request = Frame::new(Opcode::FileGet, json!({"id": id.as_str()}));
        let (reply, blob) = self.request_blob(request, None)?;
        let header = expect_ok(reply)?;
        let len = header_u64(&header, "len").map_err(remote)?;
        let blob = blob
            .into_iter()
            .next()
            .ok_or_else(|| StoreError::Remote("file reply announced no blob".to_string()))?;
        if blob.len() as u64 != len {
            return Err(StoreError::Remote(format!(
                "file reply announced {len} bytes but streamed {}",
                blob.len()
            )));
        }
        Ok(blob)
    }

    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        let reply = self.request(Frame::new(Opcode::FileSize, json!({"id": id.as_str()})))?;
        let header = expect_ok(reply)?;
        header_u64(&header, "len").map_err(remote)
    }

    fn contains_file(&self, id: &FileId) -> bool {
        self.contains(Opcode::FileContains, id.as_str())
    }

    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        let reply = self.request(Frame::new(Opcode::FileRemove, json!({"id": id.as_str()})))?;
        expect_ok(reply).map(|_| ())
    }

    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.ids(Opcode::FileIds, FileId::from_string)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// One `ChainGet`: the registry walks the chain next to the data and
    /// streams back what the recovery reads. The bytes read are accounted
    /// as the per-item reads of the same documents and files would be.
    fn recovery_reads(
        &self,
        tip: &SavedModelId,
        limit: usize,
        check_env: bool,
    ) -> Option<Result<RecoveryReads, StoreError>> {
        let limit = u64::try_from(limit).unwrap_or(u64::MAX);
        let request = Frame::new(
            Opcode::ChainGet,
            json!({"id": tip.doc_id().as_str(), "limit": limit, "check_env": check_env}),
        );
        let fetched = self.request_blob(request, None).and_then(|(reply, files)| {
            let reads =
                decode_chain_reply(expect_ok(reply)?, files).map_err(remote)?;
            let docs: u64 = reads.docs.iter().map(doc_stored_bytes).sum();
            self.bytes_read.fetch_add(docs, Ordering::Relaxed);
            Ok(reads)
        });
        Some(fetched)
    }
}

/// Cheap xorshift jitter source. Retry spreading only — never used on a
/// reproducibility-sensitive path (simulated results use no randomness).
struct Jitter {
    state: AtomicU64,
}

impl Jitter {
    fn new() -> Jitter {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a jitter seed wants the fast-moving low bits; the high ones may go"
        )]
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            | 1;
        Jitter { state: AtomicU64::new(seed) }
    }

    /// Uniform-ish fraction in [0, 1).
    fn next_fraction(&self) -> f64 {
        let mut x = self.state.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.store(x, Ordering::Relaxed);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}
