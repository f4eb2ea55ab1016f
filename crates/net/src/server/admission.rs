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

/// One request handed from an I/O thread to a shard worker.
pub(super) struct Job {
    pub(super) conn: Arc<ConnShared>,
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
    /// The request was shed at announce time: consume its chunks (the
    /// client already sent them) but execute nothing.
    pub(super) discard: bool,
}

/// Routes one decoded frame: chunk assembly runs on the I/O thread;
/// admitted requests dispatch to their shard.
pub(super) fn handle_frame(
    state: &ServerState,
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
        Opcode::Chunk => handle_chunk(state, conn, &frame, shard_txs),
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
            let discard = !admit(state, conn, &frame);
            if discard {
                blob.count_only();
            }
            let pending = PendingBlob { announce: frame, blob, started, discard };
            if pending.blob.is_complete() {
                finish_upload(state, conn, pending, shard_txs);
            } else {
                conn.pending_blobs.insert(request_id, pending);
            }
        }
        _ => {
            if admit(state, conn, &frame) {
                dispatch(state, conn, frame, None, started, shard_txs);
            }
        }
    }
}

/// Accounts a chunk to its pending blob; a completed blob dispatches its
/// announced request (or evaporates, if the request was shed).
fn handle_chunk(
    state: &ServerState,
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
        // The transfer dies without ever dispatching, so the admission
        // budget it reserved at announce time must be released here.
        if let Some(dead) = conn.pending_blobs.remove(&request_id) {
            if !dead.discard {
                finish_inflight(state, &conn.shared);
            }
        }
        return;
    }
    if pending.blob.is_complete() {
        let Some(done) = conn.pending_blobs.remove(&request_id) else { return };
        finish_upload(state, conn, done, shard_txs);
    }
}

/// Hands a fully received upload to its shard, unless it was shed.
fn finish_upload(
    state: &ServerState,
    conn: &IoConn,
    done: PendingBlob,
    shard_txs: &[crossbeam::channel::Sender<Job>],
) {
    if !done.discard {
        let blob = Some(done.blob.into_blob());
        dispatch(state, conn, done.announce, blob, done.started, shard_txs);
    }
}

/// Admission control: admits the request (incrementing the in-flight
/// accounting) or sheds it with a `Busy` response.
fn admit(state: &ServerState, conn: &IoConn, frame: &Frame) -> bool {
    // Per-connection budget: only this I/O thread increments it, so a
    // plain load cannot race another admission.
    if conn.shared.inflight.load(Ordering::Acquire) >= state.admission.per_conn_inflight {
        return shed(state, conn, frame);
    }
    // Global budget: I/O threads race here, so reserve first and undo
    // on overshoot — check-then-increment could exceed the cap by up
    // to one admission per concurrent thread.
    let prev = state.global_inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= state.admission.global_inflight {
        state.global_inflight.fetch_sub(1, Ordering::AcqRel);
        return shed(state, conn, frame);
    }
    conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
    state.metrics.inflight.add(1.0);
    state.metrics.count(frame.opcode);
    true
}

/// Sheds one request with a `Busy` reply carrying the retry hint.
fn shed(state: &ServerState, conn: &IoConn, frame: &Frame) -> bool {
    state.metrics.load_shed.add(1);
    let reply = busy_frame(RETRY_AFTER_MS).with_request_id(frame.request_id);
    let _ = conn.shared.send_frames(&[reply], state.faults.as_deref());
    false
}

/// Hands an admitted request to its shard. Routing hashes the id named in
/// the header, so every request about one model/document/file serializes
/// on one worker; requests without an id spread by request id.
fn dispatch(
    state: &ServerState,
    conn: &IoConn,
    frame: Frame,
    blob: Option<Vec<u8>>,
    started: Instant,
    shard_txs: &[crossbeam::channel::Sender<Job>],
) {
    let key = match header_str(&frame.header, "id") {
        Ok(id) => fnv1a(id.as_bytes()),
        Err(_) => frame.request_id,
    };
    let shard = usize::try_from(key % shard_txs.len() as u64).unwrap_or(0);
    let job = Job { conn: Arc::clone(&conn.shared), frame, blob, started };
    if shard_txs[shard].send(job).is_err() {
        // Shutdown race: workers are gone; the connection is about to be
        // torn down with them.
        finish_inflight(state, &conn.shared);
    }
}

/// Gives one admitted request's share of the budgets back.
pub(super) fn finish_inflight(state: &ServerState, conn: &ConnShared) {
    state.global_inflight.fetch_sub(1, Ordering::AcqRel);
    conn.inflight.fetch_sub(1, Ordering::AcqRel);
    state.metrics.inflight.add(-1.0);
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
