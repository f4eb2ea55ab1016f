//! The I/O threads: each owns a set of sockets and runs a nonblocking
//! adopt / read / decode / write loop over them. The handshake happens
//! here, because it decides how the connection's later bytes are framed.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use mmlib_store::fault::Fault;
use parking_lot::Mutex;
use serde_json::json;

use super::admission::{handle_frame, Job, PendingBlob};
use super::handlers::{err_frame, ok_frame};
use super::ServerState;
use crate::fault::NetFaults;
use crate::protocol::{
    encode_frame_v, header_u64, Frame, Opcode, RecvBuf, WireError, WireVersion, PROTOCOL_V2,
};

/// The half of a connection that shard workers touch: the outbound queue
/// plus the flags the I/O thread and workers coordinate through.
pub(super) struct ConnShared {
    pub(super) out: Mutex<OutQueue>,
    /// Requests admitted on this connection and not yet answered.
    pub(super) inflight: AtomicUsize,
}

/// Outbound bytes awaiting the socket, with a partial-write cursor.
pub(super) struct OutQueue {
    queue: VecDeque<Bytes>,
    /// Bytes of the front buffer already written.
    front_written: usize,
    /// Stop accepting new buffers; close the socket once drained. Set by
    /// a fault (truncation), a protocol error, or peer EOF.
    close_after_flush: bool,
    /// Close immediately, discarding anything queued (injected drop).
    dead: bool,
}

impl ConnShared {
    fn new() -> ConnShared {
        ConnShared {
            out: Mutex::new(OutQueue {
                queue: VecDeque::new(),
                front_written: 0,
                close_after_flush: false,
                dead: false,
            }),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Encodes and enqueues response frames, consulting the fault schedule
    /// once per frame (replies *and* blob chunks):
    ///
    /// * `TruncateFrame`/`TornWrite` — only a prefix of the frame's bytes
    ///   is queued and the connection closes after flushing it;
    /// * `DropConnection`/`ConnReset` — the connection dies immediately,
    ///   discarding everything queued;
    /// * `IoError` — *this one frame* vanishes and the connection lives
    ///   on: the injected loss of a single multiplexed response, which
    ///   must not corrupt its neighbors.
    pub(super) fn send_frames(
        &self,
        frames: &[Frame],
        faults: Option<&NetFaults>,
    ) -> Result<(), WireError> {
        for frame in frames {
            match faults.and_then(NetFaults::on_response) {
                None => {}
                Some(Fault::TruncateFrame { after_bytes })
                | Some(Fault::TornWrite { after_bytes }) => {
                    let encoded = encode_frame_v(frame, WireVersion::V2)?;
                    // Saturate: a cut point beyond addressable memory means
                    // "the whole frame", which `min` clamps to its length.
                    let cut =
                        usize::try_from(after_bytes).unwrap_or(usize::MAX).min(encoded.len());
                    self.enqueue(encoded.slice(0..cut), true);
                    return Ok(());
                }
                Some(Fault::DropConnection) | Some(Fault::ConnReset) => {
                    let mut out = self.out.lock();
                    out.queue.clear();
                    out.front_written = 0;
                    out.dead = true;
                    return Ok(());
                }
                Some(Fault::IoError) => continue,
                // Latency faults sleep inside the injector and are never
                // returned; any other variant belongs to the storage layer
                // — ignore it rather than kill the server.
                Some(_) => {}
            }
            if !self.enqueue(encode_frame_v(frame, WireVersion::V2)?, false) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Queues one encoded frame, optionally as the last thing the peer
    /// hears. `false` when the connection is already closing and nothing
    /// more can be queued.
    fn enqueue(&self, encoded: Bytes, close_after: bool) -> bool {
        let mut out = self.out.lock();
        let open = !out.dead && !out.close_after_flush;
        if open {
            out.queue.push_back(encoded);
            out.close_after_flush = close_after;
        }
        open
    }

    /// Answers a violation of the message exchange on an open session: an
    /// `Err {"code": "protocol"}` for `request_id`, then close.
    pub(super) fn protocol_error(&self, request_id: u64, message: &str) {
        let reply = err_frame("protocol", message).with_request_id(request_id);
        if let Ok(encoded) = encode_frame_v(&reply, WireVersion::V2) {
            self.enqueue(encoded, true);
        }
    }

    fn drained(&self) -> bool {
        self.inflight.load(Ordering::Acquire) == 0 && self.out.lock().queue.is_empty()
    }
}

/// A connection as owned by its I/O thread.
pub(super) struct IoConn {
    stream: TcpStream,
    pub(super) shared: Arc<ConnShared>,
    recv: RecvBuf,
    /// Blob transfers announced but not fully received, by request id.
    pub(super) pending_blobs: HashMap<u64, PendingBlob>,
    last_activity: Instant,
    /// The `Hello` pair has been exchanged: frames now carry request ids,
    /// and only now may one reach admission.
    handshaken: bool,
    /// Stop reading (the peer half-closed, or its handshake was refused);
    /// finish writing, then close.
    eof: bool,
}

/// How long an I/O thread keeps servicing its connections after the stop
/// flag is set, waiting for in-flight requests and outbound queues to
/// drain. Quiescent connections drain instantly; the grace only bounds a
/// peer that stalls mid-request or stops reading.
const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One I/O thread: adopt, read, decode, dispatch, write — never block.
/// On stop, drains in-flight requests and queued responses (bounded by
/// [`SHUTDOWN_DRAIN_GRACE`]) before exiting.
pub(super) fn io_loop(
    state: &Arc<ServerState>,
    intake: &mpsc::Receiver<TcpStream>,
    shard_txs: &[crossbeam::channel::Sender<Job>],
    idle_timeout: Option<Duration>,
    stop: &AtomicBool,
) {
    let mut conns: Vec<IoConn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let mut progressed = false;
        if stopping {
            drain_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN_GRACE);
        } else {
            for stream in intake.try_iter() {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                state.metrics.connections.add(1);
                conns.push(IoConn {
                    stream,
                    shared: Arc::new(ConnShared::new()),
                    recv: RecvBuf::new(),
                    pending_blobs: HashMap::new(),
                    last_activity: Instant::now(),
                    handshaken: false,
                    eof: false,
                });
                progressed = true;
            }
        }

        let mut i = 0;
        while i < conns.len() {
            match service_conn(state, &mut conns[i], shard_txs, idle_timeout, &mut scratch) {
                Ok(active) => {
                    progressed |= active;
                    i += 1;
                }
                Err(()) => {
                    // Fatal for this connection only: drop the socket. Any
                    // in-flight jobs keep their Arc and finish harmlessly;
                    // announced-but-incomplete blob transfers never will,
                    // and drop here with the admissions they hold.
                    conns.swap_remove(i);
                    progressed = true;
                }
            }
        }

        if stopping {
            let drained = conns.iter().all(|c| c.pending_blobs.is_empty() && c.shared.drained());
            if drained || drain_deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }

        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Services one connection once: flush, read, decode, dispatch, flush.
/// `Ok(true)` when any bytes moved; `Err(())` when the connection is done.
fn service_conn(
    state: &Arc<ServerState>,
    conn: &mut IoConn,
    shard_txs: &[crossbeam::channel::Sender<Job>],
    idle_timeout: Option<Duration>,
    scratch: &mut [u8],
) -> Result<bool, ()> {
    let mut active = flush_out(state, conn)?;

    // Read whatever the socket has, bounded per pass so one firehose
    // connection cannot starve its neighbors.
    let mut reads = 0;
    while reads < 8 && !conn.eof {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                conn.shared.out.lock().close_after_flush = true;
            }
            Ok(n) => {
                state.metrics.bytes_in.add(n as u64);
                conn.recv.extend(&scratch[..n]);
                conn.last_activity = Instant::now();
                active = true;
                reads += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }

    // Decode and handle every complete frame buffered so far.
    loop {
        let version = if conn.handshaken { WireVersion::V2 } else { WireVersion::V1 };
        match conn.recv.next_frame(version) {
            Ok(None) => break,
            Ok(Some(frame)) if conn.handshaken => {
                active = true;
                handle_frame(state, conn, frame, shard_txs);
            }
            Ok(Some(frame)) => {
                active = true;
                conn.handshaken = handle_hello(state, &conn.shared, &frame);
                if !conn.handshaken {
                    // Refused: whatever else this peer sent goes unread.
                    conn.eof = true;
                    conn.recv.clear();
                    break;
                }
            }
            Err(e) => {
                // Framing is lost: tell the peer (best effort) and close.
                if let Ok(reply) = encode_frame_v(&err_frame("protocol", &e.to_string()), version)
                {
                    conn.shared.enqueue(reply, true);
                }
                conn.recv.clear();
                break;
            }
        }
    }

    active |= flush_out(state, conn)?;

    {
        let out = conn.shared.out.lock();
        if out.dead || (out.close_after_flush && out.queue.is_empty()) {
            return Err(());
        }
    }
    if let Some(idle) = idle_timeout {
        if conn.last_activity.elapsed() > idle
            && conn.pending_blobs.is_empty()
            && conn.shared.drained()
        {
            // Idle close is silent — writing an error frame would later
            // read back as a stale reply.
            return Err(());
        }
    }
    Ok(active)
}

/// Writes queued outbound bytes until the socket would block. Counts every
/// byte that reaches the socket — and only those — into `bytes_out`.
fn flush_out(state: &ServerState, conn: &mut IoConn) -> Result<bool, ()> {
    let mut out = conn.shared.out.lock();
    if out.dead {
        return Err(());
    }
    let mut active = false;
    while let Some(front) = out.queue.front() {
        let from = out.front_written;
        // Written under the out lock on purpose: the socket is
        // nonblocking, so `write` returns WouldBlock instead of stalling,
        // and the queue must stay consistent with what reached the kernel.
        match conn.stream.write(&front[from..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                state.metrics.bytes_out.add(n as u64);
                active = true;
                if from + n == front.len() {
                    out.queue.pop_front();
                    out.front_written = 0;
                } else {
                    out.front_written = from + n;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(active)
}

/// The handshake, answered inline on the I/O thread because it decides the
/// framing of the very next frame. A connection's first frame must be
/// `Hello {"version": 2}`; the reply — acceptance or refusal — goes out in
/// the same id-less framing the `Hello` came in, outside the fault
/// schedule, so response ordinals count requests only. Returns whether the
/// session is open; a refused connection closes once the refusal is
/// flushed.
fn handle_hello(state: &ServerState, conn: &ConnShared, frame: &Frame) -> bool {
    let started = Instant::now();
    let asked = header_u64(&frame.header, "version").ok();
    let accepted = frame.opcode == Opcode::Hello && asked == Some(u64::from(PROTOCOL_V2));
    let reply = if accepted {
        ok_frame(json!({
            "version": PROTOCOL_V2,
            "max_inflight": state.admission.per_conn_inflight as u64,
        }))
    } else {
        err_frame(
            "version_mismatch",
            &format!(
                "server speaks version {PROTOCOL_V2} only and a connection must open with \
                 hello {{\"version\": {PROTOCOL_V2}}}; got {} with {}",
                frame.opcode.name(),
                asked.map_or("no version".to_string(), |v| format!("version {v}")),
            ),
        )
    };
    if let Ok(encoded) = encode_frame_v(&reply, WireVersion::V1) {
        conn.enqueue(encoded, !accepted);
    }
    if accepted {
        state.metrics.count(Opcode::Hello);
        state.metrics.observe_latency(Opcode::Hello, started.elapsed());
    }
    accepted
}
