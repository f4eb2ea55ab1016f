//! What happens to a decoded frame of an open session before a worker
//! sees it: chunk assembly for announced uploads, the admission decision,
//! and routing to a shard. All of it runs on the connection's I/O thread.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::handlers::{busy_frame, err_frame};
use super::io::{ConnShared, IoConn};
use super::ServerState;
use crate::protocol::{header_str, header_u64, BlobAssembler, Frame, Opcode};

/// Backoff hint carried in `Busy` responses, in milliseconds.
const RETRY_AFTER_MS: u64 = 25;

/// One admitted request's share of the in-flight budgets: a unit of its
/// connection's budget, a unit of the global budget, and one on the
/// `mmlib_net_inflight_requests` gauge. Only [`admit`] makes one, and
/// dropping it gives all three back, so a request releases its budget
/// however it ends: answered, cut short mid-upload, refused by a shard that
/// is shutting down, or dropped with its connection.
pub(super) struct Admission {
    state: Arc<ServerState>,
    /// The connection the request arrived on, which its reply goes to.
    pub(super) conn: Arc<ConnShared>,
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.state.global_inflight.fetch_sub(1, Ordering::AcqRel);
        self.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        self.state.metrics.inflight.add(-1.0);
    }
}

/// One request handed from an I/O thread to a shard worker.
pub(super) struct Job {
    pub(super) admission: Admission,
    pub(super) frame: Frame,
    /// Assembled `FilePut` payload, when the request announced one.
    pub(super) blob: Option<Vec<u8>>,
    pub(super) started: Instant,
}

/// An announced inbound blob being assembled from chunk frames.
pub(super) struct PendingBlob {
    announce: Frame,
    blob: BlobAssembler,
    started: Instant,
    /// `None` when the request was shed at announce time: its chunks (the
    /// client already sent them) are consumed, but nothing executes.
    admission: Option<Admission>,
}

/// Routes one decoded frame: chunk assembly runs on the I/O thread;
/// admitted requests dispatch to their shard.
pub(super) fn handle_frame(
    state: &Arc<ServerState>,
    conn: &mut IoConn,
    frame: Frame,
    shard_txs: &[crossbeam::channel::Sender<Job>],
) {
    let started = Instant::now();
    let request_id = frame.request_id;
    match frame.opcode {
        Opcode::Hello => {
            conn.shared
                .protocol_error(request_id, "hello must be the first frame on a connection");
        }
        Opcode::Chunk => handle_chunk(conn, &frame, shard_txs),
        Opcode::Ok | Opcode::Err | Opcode::Busy => {
            conn.shared.protocol_error(
                request_id,
                &format!("{} is not a request opcode", frame.opcode.name()),
            );
        }
        Opcode::FilePut => {
            let Ok(len) = header_u64(&frame.header, "len") else {
                let reply = err_frame("bad_header", "missing integer field `len`")
                    .with_request_id(request_id);
                let _ = conn.shared.send_frames(&[reply], None);
                return;
            };
            if conn.pending_blobs.contains_key(&request_id) {
                conn.shared.protocol_error(
                    request_id,
                    "a blob transfer is already in flight for this request id",
                );
                return;
            }
            // Bound the announcement before anything is charged for it.
            let mut blob = match BlobAssembler::new(len) {
                Ok(blob) => blob,
                Err(e) => return conn.shared.protocol_error(request_id, &e.to_string()),
            };
            // The admission decision happens at announce time: a shed
            // upload still has its (already sent) chunks consumed, but
            // buffers and executes nothing.
            let admission = admit(state, conn, &frame);
            if admission.is_none() {
                blob.count_only();
            }
            let pending = PendingBlob { announce: frame, blob, started, admission };
            if pending.blob.is_complete() {
                finish_upload(pending, shard_txs);
            } else {
                conn.pending_blobs.insert(request_id, pending);
            }
        }
        _ => {
            if let Some(admission) = admit(state, conn, &frame) {
                dispatch(admission, frame, None, started, shard_txs);
            }
        }
    }
}

/// Accounts a chunk to its pending blob; a completed blob dispatches its
/// announced request (or evaporates, if the request was shed).
fn handle_chunk(
    conn: &mut IoConn,
    frame: &Frame,
    shard_txs: &[crossbeam::channel::Sender<Job>],
) {
    let request_id = frame.request_id;
    let Some(pending) = conn.pending_blobs.get_mut(&request_id) else {
        conn.shared.protocol_error(request_id, "chunk without an announced transfer");
        return;
    };
    if let Err(e) = pending.blob.push(&frame.payload) {
        conn.shared.protocol_error(request_id, &e.to_string());
        // The transfer dies without ever dispatching; dropping it gives
        // back the admission it took at announce time.
        conn.pending_blobs.remove(&request_id);
        return;
    }
    if pending.blob.is_complete() {
        let Some(done) = conn.pending_blobs.remove(&request_id) else { return };
        finish_upload(done, shard_txs);
    }
}

/// Hands a fully received upload to its shard, unless it was shed.
fn finish_upload(done: PendingBlob, shard_txs: &[crossbeam::channel::Sender<Job>]) {
    if let Some(admission) = done.admission {
        let blob = Some(done.blob.into_blob());
        dispatch(admission, done.announce, blob, done.started, shard_txs);
    }
}

/// Admission control: admits the request, charging the in-flight
/// accounting to the returned token, or sheds it with a `Busy` response.
fn admit(state: &Arc<ServerState>, conn: &IoConn, frame: &Frame) -> Option<Admission> {
    // Per-connection budget: only this I/O thread increments it, so a
    // plain load cannot race another admission.
    if conn.shared.inflight.load(Ordering::Acquire) >= state.admission.per_conn_inflight {
        shed(state, conn, frame);
        return None;
    }
    // Global budget: I/O threads race here, so reserve first and undo
    // on overshoot — check-then-increment could exceed the cap by up
    // to one admission per concurrent thread.
    let prev = state.global_inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= state.admission.global_inflight {
        state.global_inflight.fetch_sub(1, Ordering::AcqRel);
        shed(state, conn, frame);
        return None;
    }
    conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
    state.metrics.inflight.add(1.0);
    state.metrics.count(frame.opcode);
    Some(Admission { state: Arc::clone(state), conn: Arc::clone(&conn.shared) })
}

/// Sheds one request with a `Busy` reply carrying the retry hint.
fn shed(state: &ServerState, conn: &IoConn, frame: &Frame) {
    state.metrics.load_shed.add(1);
    let reply = busy_frame(RETRY_AFTER_MS).with_request_id(frame.request_id);
    let _ = conn.shared.send_frames(&[reply], state.faults.as_deref());
}

/// Hands an admitted request to its shard. Routing hashes the id named in
/// the header, so every request about one model/document/file serializes
/// on one worker; requests without an id spread by request id.
///
/// Lineage queries are the exception: each reads the whole store, so it
/// has no one model's order to keep, and all of them run on the first
/// worker. A query holds one lineage node per saved model while it runs;
/// on one worker that memory is reused, while spread over all of them each
/// worker's allocator keeps a copy (`fleet-remote` peak RSS 36 MB spread,
/// 32 MB on one worker, on a 2-vCPU VM with glibc malloc).
fn dispatch(
    admission: Admission,
    frame: Frame,
    blob: Option<Vec<u8>>,
    started: Instant,
    shard_txs: &[crossbeam::channel::Sender<Job>],
) {
    let key = match header_str(&frame.header, "id") {
        _ if matches!(frame.opcode, Opcode::LineageGet | Opcode::LineageAncestry) => 0,
        Ok(id) => fnv1a(id.as_bytes()),
        Err(_) => frame.request_id,
    };
    let shard = usize::try_from(key % shard_txs.len() as u64).unwrap_or(0);
    // A failed send is the shutdown race (the workers are gone): the job,
    // and its admission with it, drops here.
    let _ = shard_txs[shard].send(Job { admission, frame, blob, started });
}

/// FNV-1a: the shard router's stable, dependency-free string hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
