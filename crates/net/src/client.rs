//! The remote store client: [`mmlib_store::StorageBackend`] over TCP.
//!
//! [`RemoteStore`] speaks the wire protocol of [`crate::protocol`] to a
//! [`crate::RegistryServer`] and implements the same document/file surface
//! as local storage, so the whole save/recover stack runs unmodified
//! against a registry across the network — the paper's node/server split
//! (§4.1).
//!
//! Connections come from a small **pool**: each pooled socket opens with
//! the `Hello` handshake and then serves one caller at a time, who writes
//! the request and reads its reply on their own thread; a caller waits
//! while every connection is in use, and the client starts no thread of its
//! own. Family recovery and the dist flows thus reuse warm connections
//! instead of paying per-request connection latency. Requests are retried
//! with exponential backoff plus jitter on connection failure, and a
//! server's `Busy` refusal of a new connection is just another retryable
//! outcome.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mmlib_obs::Gauge;
use mmlib_store::schema::{LineageRecordDoc, RecoveryReads, SavedModelId};
use mmlib_store::{DocId, Document, FileId, ModelStorage, StorageBackend, StoreError};
use parking_lot::Mutex;
use serde_json::{json, Value};

use crate::protocol::{
    decode_chain_reply, encode_chunk_prefix, encode_frame_prefix, header_str, header_u64,
    read_frame_counted, reply_parts, BlobAssembler, Frame, Opcode, RecvBuf, WireError, WireVersion,
    CHUNK_SIZE, PROTOCOL_V2,
};

/// Gauge of currently open pooled client connections (process-wide).
pub const NET_POOL_CONNECTIONS: &str = "mmlib_net_pool_connections";

/// Client tuning knobs, set through [`RemoteStore::builder`].
#[derive(Debug, Clone)]
pub(crate) struct ClientConfig {
    /// Attempts per request beyond the first (0 = fail fast).
    pub max_retries: u32,
    /// How long a caller waits for its reply (None = forever).
    pub read_timeout: Option<Duration>,
    /// Pooled connections, each serving one caller at a time.
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
    /// Pooled connections: at most this many requests are in flight at
    /// once, one per connection.
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
        let (returned, idle) = mpsc::channel();
        let store = RemoteStore {
            addr,
            unopened: AtomicUsize::new(config.pool_size),
            config,
            idle: Mutex::new(idle),
            returned,
            next_request_id: AtomicU64::new(1),
            jitter: Jitter::new(),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            wire_out: AtomicU64::new(0),
            wire_in: AtomicU64::new(0),
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

/// A pooled client for a registry server, usable as a storage backend.
///
/// One `RemoteStore` holds up to [`RemoteStoreBuilder::pool_size`] TCP
/// connections and is safe to share across any number of threads: each
/// request takes an idle connection for its exchange, and waits for one
/// while all are in use. Wrap it in an `Arc` directly, or hand the whole
/// stack a [`ModelStorage`] via [`RemoteStore::into_storage`].
pub struct RemoteStore {
    addr: SocketAddr,
    config: ClientConfig,
    /// The pool's idle slots: a slot holds its open connection, or `None`
    /// once a wire error closed it. A caller takes a slot for one exchange
    /// and sends it back through `returned`.
    idle: Mutex<mpsc::Receiver<Option<Conn>>>,
    returned: mpsc::Sender<Option<Conn>>,
    /// Slots not yet opened; with the idle and the taken ones,
    /// `pool_size` in all.
    unopened: AtomicUsize,
    next_request_id: AtomicU64,
    jitter: Jitter,
    /// Storage-semantic bytes (stored document/blob sizes), mirroring what
    /// a local backend would report — the paper's storage metric.
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Exact raw socket bytes, for reconciling against the server's
    /// `bytes_in`/`bytes_out` counters.
    wire_out: AtomicU64,
    wire_in: AtomicU64,
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
    /// reply, each into its own buffer. The blob is the caller's borrowed
    /// bytes: every attempt, retries included, frames its chunks from that
    /// same slice, and nothing copies it.
    fn request_blob(
        &self,
        frame: Frame,
        blob: Option<&[u8]>,
    ) -> Result<(Frame, Vec<Vec<u8>>), StoreError> {
        let mut attempt = 0u32;
        loop {
            // Every attempt gets a fresh frame id, so a late reply to a
            // timed-out attempt can never be mistaken for this one's.
            match self.try_exchange(&frame, blob) {
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

    /// One exchange on a pooled connection, opened first if its slot has
    /// none. All errors out of here are retryable: a wire error drops the
    /// connection (its slot reopens on next use); a timeout, `Busy` or a
    /// refused reply blob leave it in the pool.
    fn try_exchange(
        &self,
        frame: &Frame,
        blob: Option<&[u8]>,
    ) -> Result<(Frame, Vec<Vec<u8>>), WireError> {
        let mut slot = self.take_slot()?;
        let conn = match slot.conn.take() {
            Some(conn) => conn,
            None => self.open_conn()?,
        };
        let conn = slot.conn.insert(conn);
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        conn.write_request(&frame.clone().with_request_id(id), blob, &self.wire_out)?;
        let (reply, reply_blob) =
            conn.read_reply(id, frame.opcode, self.config.read_timeout, &self.wire_in)?;
        if reply.opcode == Opcode::Busy {
            return Err(WireError::Busy(busy_hint(&reply)));
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

    /// Takes a pool slot: an idle connection if there is one, else an
    /// unopened slot while any is left, else the next slot given back.
    /// Takers decide one at a time, under the `idle` lock.
    fn take_slot(&self) -> Result<Slot<'_>, WireError> {
        let idle = self.idle.lock();
        let conn = match idle.try_recv() {
            Ok(slot) => slot,
            Err(_) if self.take_unopened() => None,
            // `recv` fails only once every sender is gone, and `self` holds
            // one.
            Err(_) => idle
                .recv()
                .map_err(|_| WireError::Protocol("connection pool closed".to_string()))?,
        };
        Ok(Slot { pool: &self.returned, conn })
    }

    /// Claims one unopened slot, if any is left.
    fn take_unopened(&self) -> bool {
        self.unopened
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Opens a socket and performs the `Hello` handshake, the one id-less
    /// frame pair of a session. A server serving as many connections as it
    /// admits answers `Busy`, which is retried like any other refusal.
    fn open_conn(&self) -> Result<Conn, WireError> {
        /// TCP connect timeout per attempt.
        const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
        /// Socket write timeout.
        const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let hello = Frame::new(Opcode::Hello, json!({"version": u64::from(PROTOCOL_V2)}));
        let wrote = write_frames(&mut &stream, &hello, None, WireVersion::V1)?;
        self.wire_out.fetch_add(wrote, Ordering::Relaxed);
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
            Opcode::Busy => return Err(WireError::Busy(busy_hint(&reply))),
            _ => {
                let msg = reply
                    .header
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("handshake rejected");
                return Err(WireError::Protocol(format!("hello rejected: {msg}")));
            }
        }
        self.pool_gauge.add(1.0);
        Ok(Conn {
            stream,
            recv: RecvBuf::new(),
            scratch: vec![0u8; 64 * 1024],
            broken: false,
            gauge: Arc::clone(&self.pool_gauge),
        })
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

/// A pool slot taken for one exchange. Dropping it sends the slot back,
/// with its connection unless a wire error broke it.
struct Slot<'a> {
    pool: &'a mpsc::Sender<Option<Conn>>,
    conn: Option<Conn>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let conn = self.conn.take().filter(|conn| !conn.broken);
        // Fails only once the store is gone, and the slot with it.
        let _ = self.pool.send(conn);
    }
}

/// One pooled connection, used by one caller at a time.
struct Conn {
    stream: TcpStream,
    /// Bytes read past the last whole frame, kept for the next exchange.
    recv: RecvBuf,
    scratch: Vec<u8>,
    /// A wire error left the stream's framing unknown: the connection is
    /// closed when its slot goes back.
    broken: bool,
    gauge: Arc<Gauge>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.gauge.add(-1.0);
    }
}

impl Conn {
    /// Writes one request frame and its blob as chunk frames, counting
    /// exact wire bytes.
    fn write_request(
        &mut self,
        frame: &Frame,
        blob: Option<&[u8]>,
        wire_out: &AtomicU64,
    ) -> Result<(), WireError> {
        match write_frames(&mut self.stream, frame, blob, WireVersion::V2) {
            Ok(wrote) => {
                wire_out.fetch_add(wrote, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// Reads until the reply to request `id` — and the blob it announces,
    /// if any ([`reply_parts`]) — is whole, waiting at most `timeout` in
    /// all. Frames of other requests, such as a timed-out attempt's late
    /// reply, are skipped. A timeout or a reply whose announcement breaks
    /// chunk accounting fails this request only: the connection stays up.
    fn read_reply(
        &mut self,
        id: u64,
        request: Opcode,
        timeout: Option<Duration>,
        wire_in: &AtomicU64,
    ) -> Result<(Frame, Vec<Vec<u8>>), WireError> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut announced: Option<(Frame, BlobAssembler)> = None;
        loop {
            let frame = match self.recv.next_frame(WireVersion::V2) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    if left.is_some_and(|left| left.is_zero()) || !self.fill(left, wire_in)? {
                        return Err(WireError::Protocol(format!(
                            "timed out after {:?} waiting for a reply",
                            timeout.unwrap_or_default()
                        )));
                    }
                    continue;
                }
                Err(e) => {
                    self.broken = true;
                    return Err(e);
                }
            };
            if frame.request_id != id {
                continue;
            }
            match (frame.opcode, announced.as_mut()) {
                (Opcode::Err | Opcode::Busy, _) => return Ok((frame, Vec::new())),
                (Opcode::Chunk, Some((_, blob))) => blob.push(&frame.payload)?,
                (Opcode::Ok, None) => match reply_parts(request, &frame.header)? {
                    None => return Ok((frame, Vec::new())),
                    Some(lens) => announced = Some((frame, BlobAssembler::with_parts(&lens)?)),
                },
                // The server sends nothing else for a request; a stray
                // frame is dropped.
                _ => continue,
            }
            if announced.as_ref().is_some_and(|(_, blob)| blob.is_complete()) {
                if let Some((frame, blob)) = announced.take() {
                    return Ok((frame, blob.into_parts()));
                }
            }
        }
    }

    /// Reads what the socket has into the receive buffer, waiting at most
    /// `wait` (`None` = forever). `false` when the wait ran out.
    fn fill(&mut self, wait: Option<Duration>, wire_in: &AtomicU64) -> Result<bool, WireError> {
        let read = self.stream.set_read_timeout(wait);
        match read.and_then(|()| self.stream.read(&mut self.scratch)) {
            Ok(0) => {
                self.broken = true;
                Err(WireError::Closed)
            }
            Ok(n) => {
                wire_in.fetch_add(n as u64, Ordering::Relaxed);
                self.recv.extend(&self.scratch[..n]);
                Ok(true)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(true),
            Err(e) => {
                self.broken = true;
                Err(WireError::Io(e))
            }
        }
    }
}

/// Writes one frame, and `blob` as its chunk frames, to `w`; returns the
/// exact wire bytes written. The bytes are those of `chunk_frames(blob)`,
/// each chunk's payload written straight from the borrowed slice.
fn write_frames(
    w: &mut impl Write,
    frame: &Frame,
    blob: Option<&[u8]>,
    version: WireVersion,
) -> Result<u64, WireError> {
    let mut wrote = write_one(w, &encode_frame_prefix(frame, version)?, &frame.payload)?;
    for chunk in blob.unwrap_or_default().chunks(CHUNK_SIZE) {
        let prefix = encode_chunk_prefix(frame.request_id, chunk.len(), version)?;
        wrote += write_one(w, &prefix, chunk)?;
    }
    w.flush()?;
    Ok(wrote)
}

fn write_one(w: &mut impl Write, prefix: &[u8], payload: &[u8]) -> Result<u64, WireError> {
    w.write_all(prefix)?;
    w.write_all(payload)?;
    Ok((prefix.len() + payload.len()) as u64)
}

/// The backoff hint of a `Busy` reply, in milliseconds.
fn busy_hint(reply: &Frame) -> u64 {
    reply.header.get("retry_after_ms").and_then(Value::as_u64).unwrap_or(0)
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
    /// Connections admitted.
    pub connections: u64,
    /// Connections the server refused with `Busy`.
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
        self.bytes_written.fetch_add(doc.stored_len(), Ordering::Relaxed);
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
        self.bytes_read.fetch_add(doc.stored_len(), Ordering::Relaxed);
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
            self.bytes_written.fetch_add(doc.stored_len(), Ordering::Relaxed);
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
        // Sent from the caller's bytes: every attempt frames its chunks
        // from this slice, so the upload is never copied.
        let (reply, _) = self.request_blob(announce, Some(bytes))?;
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
    ) -> Option<Result<RecoveryReads, StoreError>> {
        let limit = u64::try_from(limit).unwrap_or(u64::MAX);
        let request =
            Frame::new(Opcode::ChainGet, json!({"id": tip.doc_id().as_str(), "limit": limit}));
        let fetched = self.request_blob(request, None).and_then(|(reply, files)| {
            let reads =
                decode_chain_reply(expect_ok(reply)?, files).map_err(remote)?;
            let docs: u64 = reads.docs.iter().map(Document::stored_len).sum();
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
