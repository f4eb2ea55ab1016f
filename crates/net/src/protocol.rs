//! The mmlib wire protocol: length-prefixed binary frames.
//!
//! Every frame of a session carries a `u64` request id right after the
//! opcode, so every response frame names the request it answers
//! ([`WireVersion::V2`]), and a client that gave up waiting on one request
//! can skip its late reply:
//!
//! ```text
//! ┌─────────────┬─────────┬────────────────┬───────────────┬────────┬─────────┐
//! │ u32 LE len  │ u8 op   │ u64 LE req id  │ u32 LE hlen   │ header │ payload │
//! └─────────────┴─────────┴────────────────┴───────────────┴────────┴─────────┘
//! ```
//!
//! `len` counts everything after the length field itself. The JSON header
//! carries the structured part of a message (ids, document bodies, sizes);
//! the payload carries raw blob bytes. Large blobs never travel in one
//! frame: a transfer is announced by its request/response frame (header
//! `{"len": n}`; a [`Opcode::ChainGet`] reply announces several files back
//! to back) and the bytes follow in [`CHUNK_SIZE`]-bounded
//! [`Opcode::Chunk`] frames, each carrying the request id of its transfer.
//! An upload's chunks follow its announcement directly: a connection
//! carries one request at a time. `BlobAssembler` is the one place either
//! side checks a transfer's chunk accounting, and `RecvBuf` the one
//! inbound buffer.
//!
//! # Handshake
//!
//! Only the handshake pair is framed differently ([`WireVersion::V1`]: the
//! same layout without the request-id word), so that a peer of any version
//! can parse it:
//!
//! * a client opens with [`Opcode::Hello`] `{"version": 2}`; the server
//!   answers `Ok {"version": 2}`, and every later frame, in both
//!   directions, carries a request id;
//! * any other first frame — another version, another opcode — is refused
//!   with an `Err {"code": "version_mismatch"}` in the same id-less framing
//!   and the connection is closed, before anything reaches the store.
//!
//! # Load shedding
//!
//! A server already serving as many connections as it admits answers a new
//! connection's `Hello` with [`Opcode::Busy`] (`{"code": "busy",
//! "retry_after_ms": n}`) in the same id-less framing and closes it. The
//! client backs off by at least the hint and connects again.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use std::fmt;
use std::io::Read;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mmlib_store::schema::RecoveryReads;
use mmlib_store::{DocId, Document, FileId};
use serde_json::{json, Value};

/// The protocol version this build speaks, as exchanged in `Hello`.
pub const PROTOCOL_V2: u32 = 2;

/// Hard upper bound on one frame's body; oversized length prefixes are
/// rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Payload bytes per continuation chunk frame.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Hard upper bound on one streamed blob (sum of its chunks).
pub const MAX_BLOB_LEN: u64 = 8 * 1024 * 1024 * 1024;

/// Which of the two frame layouts the codec reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVersion {
    /// No request id on the wire (decoded as id 0): the `Hello` pair and
    /// refusals sent before a handshake, nothing else.
    V1,
    /// A u64 request id after the opcode byte: every other frame.
    V2,
}

impl WireVersion {
    /// Minimum legal body length: the opcode byte, the request id (v2
    /// only), and the header-length field.
    fn min_body(self) -> usize {
        match self {
            WireVersion::V1 => 1 + 4,
            WireVersion::V2 => 1 + 8 + 4,
        }
    }
}

/// Message opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness and version check. Header: `{"version": n}`.
    Ping = 0x01,
    /// The handshake, sent id-less as a connection's first frame. Header:
    /// `{"version": 2}`; the `Ok` reply carries `{"version": 2}` and every
    /// frame after it carries a request id.
    Hello = 0x02,
    /// Insert a document. Header: `{"kind": s, "body": v}`.
    DocInsert = 0x10,
    /// Fetch a document. Header: `{"id": s}`.
    DocGet = 0x11,
    /// Replace a document body. Header: `{"id": s, "body": v}`.
    DocUpdate = 0x12,
    /// Existence check. Header: `{"id": s}`.
    DocContains = 0x13,
    /// Delete a document. Header: `{"id": s}`.
    DocRemove = 0x14,
    /// List all document ids. Header: `{}`.
    DocIds = 0x15,
    /// Store a blob. Header: `{"len": n}`; bytes follow as chunks.
    FilePut = 0x20,
    /// Fetch a blob. Header: `{"id": s}`; response streams chunks.
    FileGet = 0x21,
    /// Blob size. Header: `{"id": s}`.
    FileSize = 0x22,
    /// Existence check. Header: `{"id": s}`.
    FileContains = 0x23,
    /// Delete a blob. Header: `{"id": s}`.
    FileRemove = 0x24,
    /// List all blob ids. Header: `{}`.
    FileIds = 0x25,
    /// Server metrics snapshot. Header: `{}`.
    Stats = 0x30,
    /// Server metrics in Prometheus text exposition format. Header: `{}`;
    /// the response carries the rendered text in its header (`{"text": s}`).
    StatsText = 0x31,
    /// Fetch one model's lineage record. Header: `{"id": s}`; the response
    /// header carries `{"id": s, "record": v}`, the model's node in
    /// `mmlib_store::schema::LineageGraph::read` (the `LineageRecordDoc`
    /// view of its model-info document). A model the store does not hold is
    /// refused with `missing_document`.
    LineageGet = 0x32,
    /// Fetch a model's ancestry, tip first. Header: `{"id": s}`; the
    /// response header carries `{"id": s, "ancestry": [v, ...]}`, the
    /// records `LineageGraph::ancestry_of` walks. An unknown model is
    /// `missing_document`, a cyclic parent chain `malformed`.
    LineageAncestry = 0x33,
    /// Fetch everything a recovery of one model reads, in one exchange.
    /// Header: `{"id": s, "limit": n}`, the tip and the recovery's
    /// chain-depth limit.
    /// The server runs `mmlib_store::schema::recovery_reads` next to the
    /// data; the `Ok` reply carries the documents inline and announces the
    /// files: `{"docs": [{"id": s, "kind": s, "body": v}, ...], "files":
    /// [{"id": s, "len": n}, ...], "len": n}`, where `len` is the files'
    /// total. The files follow back to back as chunks, in list order
    /// ([`encode_chain_reply`], [`decode_chain_reply`]). The reply is never
    /// an error for what the store holds: the read set just ends where a
    /// read fails, and the client reads what is missing itself.
    ChainGet = 0x34,
    /// Success response. Header: operation-specific result.
    Ok = 0x40,
    /// Failure response. Header: `{"code": s, "message": s}`.
    Err = 0x41,
    /// Load-shed reply to a `Hello`: the server serves as many connections
    /// as it admits. Header: `{"code": "busy", "retry_after_ms": n}`; the
    /// server then closes the connection. Retryable.
    Busy = 0x42,
    /// Blob payload continuation for an announced transfer, named by the
    /// frame's request id.
    Chunk = 0x50,
}

impl Opcode {
    /// Every opcode, for metrics tables.
    pub const ALL: [Opcode; 23] = [
        Opcode::Ping,
        Opcode::Hello,
        Opcode::DocInsert,
        Opcode::DocGet,
        Opcode::DocUpdate,
        Opcode::DocContains,
        Opcode::DocRemove,
        Opcode::DocIds,
        Opcode::FilePut,
        Opcode::FileGet,
        Opcode::FileSize,
        Opcode::FileContains,
        Opcode::FileRemove,
        Opcode::FileIds,
        Opcode::Stats,
        Opcode::StatsText,
        Opcode::LineageGet,
        Opcode::LineageAncestry,
        Opcode::ChainGet,
        Opcode::Ok,
        Opcode::Err,
        Opcode::Busy,
        Opcode::Chunk,
    ];

    /// Wire name, used in metrics snapshots and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Hello => "hello",
            Opcode::DocInsert => "doc_insert",
            Opcode::DocGet => "doc_get",
            Opcode::DocUpdate => "doc_update",
            Opcode::DocContains => "doc_contains",
            Opcode::DocRemove => "doc_remove",
            Opcode::DocIds => "doc_ids",
            Opcode::FilePut => "file_put",
            Opcode::FileGet => "file_get",
            Opcode::FileSize => "file_size",
            Opcode::FileContains => "file_contains",
            Opcode::FileRemove => "file_remove",
            Opcode::FileIds => "file_ids",
            Opcode::Stats => "stats",
            Opcode::StatsText => "stats_text",
            Opcode::LineageGet => "lineage_get",
            Opcode::LineageAncestry => "lineage_ancestry",
            Opcode::ChainGet => "chain_get",
            Opcode::Ok => "ok",
            Opcode::Err => "err",
            Opcode::Busy => "busy",
            Opcode::Chunk => "chunk",
        }
    }

    /// Dense index for per-opcode counter arrays, in [`Opcode::ALL`]
    /// order. The exhaustive match is compiler-checked: adding a variant
    /// without extending both this and `ALL` fails to build or fails the
    /// `index_matches_all_order` test.
    pub(crate) fn index(self) -> usize {
        match self {
            Opcode::Ping => 0,
            Opcode::Hello => 1,
            Opcode::DocInsert => 2,
            Opcode::DocGet => 3,
            Opcode::DocUpdate => 4,
            Opcode::DocContains => 5,
            Opcode::DocRemove => 6,
            Opcode::DocIds => 7,
            Opcode::FilePut => 8,
            Opcode::FileGet => 9,
            Opcode::FileSize => 10,
            Opcode::FileContains => 11,
            Opcode::FileRemove => 12,
            Opcode::FileIds => 13,
            Opcode::Stats => 14,
            Opcode::StatsText => 15,
            Opcode::LineageGet => 16,
            Opcode::LineageAncestry => 17,
            Opcode::ChainGet => 18,
            Opcode::Ok => 19,
            Opcode::Err => 20,
            Opcode::Busy => 21,
            Opcode::Chunk => 22,
        }
    }
}

impl TryFrom<u8> for Opcode {
    type Error = WireError;

    fn try_from(byte: u8) -> Result<Opcode, WireError> {
        Opcode::ALL
            .into_iter()
            .find(|&op| op as u8 == byte)
            .ok_or(WireError::BadOpcode(byte))
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub opcode: Opcode,
    /// Correlates a response (or chunk) with its request. Not on the wire
    /// in the handshake pair (decodes as 0).
    pub request_id: u64,
    pub header: Value,
    pub payload: Bytes,
}

impl Frame {
    pub fn new(opcode: Opcode, header: Value) -> Frame {
        Frame { opcode, request_id: 0, header, payload: Bytes::new() }
    }

    pub fn with_payload(opcode: Opcode, header: Value, payload: Bytes) -> Frame {
        Frame { opcode, request_id: 0, header, payload }
    }

    /// Tags the frame with a request id.
    pub fn with_request_id(mut self, id: u64) -> Frame {
        self.request_id = id;
        self
    }
}

/// Frame-level protocol errors.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Declared frame length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// Frame body shorter than its declared lengths.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Header is not valid JSON or has the wrong shape.
    BadHeader(String),
    /// The peer violated the message exchange (wrong opcode, bad chunk
    /// accounting, version mismatch, ...).
    Protocol(String),
    /// The server refused the connection under load ([`Opcode::Busy`]);
    /// retry after a backoff. Carries the advised delay in milliseconds.
    Busy(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::Closed => f.write_str("connection closed"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::BadHeader(m) => write!(f, "bad frame header: {m}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Busy(ms) => write!(f, "server busy (retry after {ms} ms)"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes a frame's length prefix, opcode, request id (v2), and header —
/// everything *except* the payload — so callers can write the payload from
/// its own shared buffer without copying it through the encoder. Returns
/// the prefix; the full frame on the wire is `prefix ++ frame.payload`.
///
/// Fails with [`WireError::Oversized`] when the body would exceed
/// [`MAX_FRAME_LEN`] — the decoder rejects such frames, so emitting one
/// would only waste bandwidth before a guaranteed peer error.
pub fn encode_frame_prefix(frame: &Frame, version: WireVersion) -> Result<Bytes, WireError> {
    encode_prefix(frame.opcode, frame.request_id, &frame.header, frame.payload.len(), version)
}

/// The prefix of the `Chunk` frame of transfer `request_id` that carries
/// `payload_len` bytes: the frame [`chunk_frames`] builds, for a writer
/// that sends the payload from a borrowed slice.
pub fn encode_chunk_prefix(
    request_id: u64,
    payload_len: usize,
    version: WireVersion,
) -> Result<Bytes, WireError> {
    encode_prefix(Opcode::Chunk, request_id, &chunk_header(), payload_len, version)
}

/// The one frame-prefix encoder, for a payload of `payload_len` bytes.
fn encode_prefix(
    opcode: Opcode,
    request_id: u64,
    header: &Value,
    payload_len: usize,
    version: WireVersion,
) -> Result<Bytes, WireError> {
    let header = header.to_json_string();
    let prefix_len = version.min_body().saturating_add(header.len());
    let body_len = prefix_len.saturating_add(payload_len);
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(body_len));
    }
    let body_len_u32 = u32::try_from(body_len).map_err(|_| WireError::Oversized(body_len))?;
    let header_len_u32 =
        u32::try_from(header.len()).map_err(|_| WireError::Oversized(header.len()))?;
    let mut out = BytesMut::with_capacity(prefix_len.saturating_add(4));
    out.put_u32_le(body_len_u32);
    out.put_u8(opcode as u8);
    if version == WireVersion::V2 {
        out.put_u64_le(request_id);
    }
    out.put_u32_le(header_len_u32);
    out.put_slice(header.as_bytes());
    Ok(out.freeze())
}

/// Encodes a frame into one contiguous buffer (length prefix included)
/// under the given framing version.
pub fn encode_frame_v(frame: &Frame, version: WireVersion) -> Result<Bytes, WireError> {
    let prefix = encode_frame_prefix(frame, version)?;
    if frame.payload.is_empty() {
        return Ok(prefix);
    }
    let mut out = BytesMut::with_capacity(prefix.len().saturating_add(frame.payload.len()));
    out.put_slice(&prefix);
    out.put_slice(&frame.payload);
    Ok(out.freeze())
}

/// Decodes one frame's *body* (everything after the u32 length prefix).
/// `body` must hold exactly the declared body bytes.
fn decode_body(mut body: Bytes, version: WireVersion) -> Result<Frame, WireError> {
    if body.remaining() < version.min_body() {
        return Err(WireError::Truncated);
    }
    let opcode = Opcode::try_from(body.get_u8())?;
    let request_id = match version {
        WireVersion::V1 => 0,
        WireVersion::V2 => body.get_u64_le(),
    };
    let header_len = usize::try_from(body.get_u32_le()).unwrap_or(usize::MAX);
    if body.remaining() < header_len {
        return Err(WireError::Truncated);
    }
    let header_bytes = body.split_to(header_len);
    let header_text = std::str::from_utf8(&header_bytes)
        .map_err(|e| WireError::BadHeader(format!("header not UTF-8: {e}")))?;
    let header =
        Value::parse(header_text).map_err(|e| WireError::BadHeader(e.to_string()))?;
    Ok(Frame { opcode, request_id, header, payload: body })
}

/// Incremental decode: examines `buf` (the start of a frame stream) and
/// returns the first complete frame plus the number of bytes it occupied,
/// or `Ok(None)` when more bytes are needed. Errors are unrecoverable for
/// the stream (framing is lost).
pub fn try_decode_frame(
    buf: &[u8],
    version: WireVersion,
) -> Result<Option<(Frame, usize)>, WireError> {
    let Some(&declared) = buf.first_chunk::<4>() else { return Ok(None) };
    let body_len = usize::try_from(u32::from_le_bytes(declared)).unwrap_or(usize::MAX);
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(body_len));
    }
    if body_len < version.min_body() {
        return Err(WireError::Truncated);
    }
    // Cannot saturate: `body_len` is at most `MAX_FRAME_LEN` here.
    let total = body_len.saturating_add(4);
    let Some(body) = buf.get(4..total) else { return Ok(None) };
    Ok(Some((decode_body(Bytes::copy_from_slice(body), version)?, total)))
}

/// Reads one frame from a stream under the given framing, also returning
/// the exact number of wire bytes consumed (length prefix included).
/// Returns [`WireError::Closed`] on a clean EOF at a frame boundary.
pub fn read_frame_counted(
    r: &mut impl Read,
    version: WireVersion,
) -> Result<(Frame, u64), WireError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(WireError::Closed)
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    // A u32 that does not fit usize (16-bit targets only) is oversized by
    // definition: saturate so the MAX_FRAME_LEN check below rejects it.
    let body_len = usize::try_from(u32::from_le_bytes(len_buf)).unwrap_or(usize::MAX);
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(body_len));
    }
    if body_len < version.min_body() {
        return Err(WireError::Truncated);
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    let wire_len = (body_len as u64).saturating_add(4);
    Ok((decode_body(Bytes::from(body), version)?, wire_len))
}

/// Splits `blob` into the `Chunk` frames of its transfer, each at most
/// [`CHUNK_SIZE`] bytes, tagged with `request_id`. Every chunk's payload is
/// a zero-copy slice of `blob` — the bytes are shared, never duplicated.
/// Empty blobs yield no chunks (the announcement's `len: 0` says it all).
pub fn chunk_frames(request_id: u64, blob: &Bytes) -> Vec<Frame> {
    let mut out = Vec::with_capacity(blob.len().div_ceil(CHUNK_SIZE));
    let mut start = 0usize;
    while start < blob.len() {
        let end = start.saturating_add(CHUNK_SIZE).min(blob.len());
        out.push(
            Frame::with_payload(Opcode::Chunk, chunk_header(), blob.slice(start..end))
                .with_request_id(request_id),
        );
        start = end;
    }
    out
}

/// The header of every `Chunk` frame: empty, as the request id and the
/// payload length say all there is to say.
fn chunk_header() -> Value {
    json!({})
}

/// Reassembles one announced blob from its `Chunk` frames, each of its
/// parts into a buffer of its own. Both directions account their transfers
/// here and nowhere else: the server's inbound `FilePut` uploads, the
/// client's `FileGet` and `ChainGet` replies.
pub struct BlobAssembler {
    /// Announced bytes not yet received.
    remaining: u64,
    /// Each announced part: its bytes still to come, and those received.
    parts: Vec<(u64, Vec<u8>)>,
    /// The part the next byte belongs to.
    at: usize,
}

impl BlobAssembler {
    /// Starts a transfer of `len` announced bytes. The announcement comes
    /// from the peer, so it is bounded here and never sizes an allocation.
    pub fn new(len: u64) -> Result<BlobAssembler, WireError> {
        BlobAssembler::with_parts(&[len])
    }

    /// Starts a transfer of parts of the announced lengths, sent back to
    /// back. Their total is bounded like a single blob's.
    pub fn with_parts(lens: &[u64]) -> Result<BlobAssembler, WireError> {
        let total = lens.iter().try_fold(0u64, |sum, &len| sum.checked_add(len));
        let Some(len) = total.filter(|&len| len <= MAX_BLOB_LEN) else {
            return Err(WireError::Protocol(format!(
                "announced blob of {} bytes exceeds maximum {MAX_BLOB_LEN}",
                total.map_or_else(|| "more than u64::MAX".to_string(), |len| len.to_string())
            )));
        };
        let parts = lens.iter().map(|&len| (len, Vec::new())).collect();
        Ok(BlobAssembler { remaining: len, parts, at: 0 })
    }

    /// Accounts one chunk payload, which may end one part and begin the
    /// next. After an error the transfer is dead.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        let overrun = || WireError::Protocol("chunk overruns announced length".to_string());
        if chunk.is_empty() {
            return Err(WireError::Protocol("empty chunk frame".to_string()));
        }
        self.remaining = self.remaining.checked_sub(chunk.len() as u64).ok_or_else(overrun)?;
        let mut rest = chunk;
        // Each pass moves to the next part or takes at least one byte.
        while !rest.is_empty() {
            let (left, bytes) = self.parts.get_mut(self.at).ok_or_else(overrun)?;
            if *left == 0 {
                self.at = self.at.saturating_add(1);
                continue;
            }
            let n = usize::try_from(*left).map_or(rest.len(), |left| left.min(rest.len()));
            let (head, tail) = rest.split_at_checked(n).ok_or_else(overrun)?;
            *left = left.saturating_sub(n as u64);
            bytes.extend_from_slice(head);
            rest = tail;
        }
        Ok(())
    }

    /// Whether every announced byte has arrived (at once for `len == 0`).
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// The assembled bytes of a one-part transfer.
    pub fn into_blob(self) -> Vec<u8> {
        self.into_parts().into_iter().next().unwrap_or_default()
    }

    /// The assembled parts, in announcement order.
    pub fn into_parts(self) -> Vec<Vec<u8>> {
        self.parts.into_iter().map(|(_, bytes)| bytes).collect()
    }
}

/// The parts of the blob an `Ok` reply to a `request` announces, or `None`
/// when it announces none: a `FileGet` reply's one `len`, or a `ChainGet`
/// reply's files, whose lengths must add up to its `len`.
pub fn reply_parts(request: Opcode, header: &Value) -> Result<Option<Vec<u64>>, WireError> {
    match request {
        Opcode::FileGet => Ok(header.get("len").and_then(Value::as_u64).map(|len| vec![len])),
        Opcode::ChainGet => {
            let lens: Vec<u64> = chain_files(header)?.into_iter().map(|(_, len)| len).collect();
            let listed = lens.iter().try_fold(0u64, |sum, &len| sum.checked_add(len));
            let announced = header_u64(header, "len")?;
            if listed != Some(announced) {
                return Err(WireError::Protocol(format!(
                    "chain_get reply announces {announced} bytes but lists files of {}",
                    listed.map_or_else(|| "more than u64::MAX".to_string(), |n| n.to_string())
                )));
            }
            Ok(Some(lens))
        }
        _ => Ok(None),
    }
}

/// The `files` list of a `ChainGet` reply header: each file's id and
/// length.
fn chain_files(header: &Value) -> Result<Vec<(&str, u64)>, WireError> {
    let files = header
        .get("files")
        .and_then(Value::as_array)
        .ok_or_else(|| WireError::BadHeader("missing `files` list".to_string()))?;
    files.iter().map(|file| Ok((header_str(file, "id")?, header_u64(file, "len")?))).collect()
}

/// JSON bytes of documents one `ChainGet` reply carries at most: half a
/// frame, so its header always fits one. The documents past it stay
/// behind, and the client reads them itself.
const CHAIN_DOCS_BUDGET: usize = 4 * 1024 * 1024;

/// A `ChainGet` reply for a read set: its header, and the files to stream
/// after it, each from its own buffer.
pub fn encode_chain_reply(reads: RecoveryReads) -> (Value, Vec<Bytes>) {
    let mut budget = CHAIN_DOCS_BUDGET;
    let docs: Vec<Value> = reads
        .docs
        .into_iter()
        .map(|doc| json!({"id": doc.id.as_str(), "kind": doc.kind, "body": doc.body}))
        .take_while(|entry| {
            let left = budget.checked_sub(entry.to_json_string().len());
            budget = left.unwrap_or(0);
            left.is_some()
        })
        .collect();
    let mut len = 0u64;
    let (files, blobs): (Vec<Value>, Vec<Bytes>) = reads
        .files
        .into_iter()
        .map(|(id, bytes)| {
            len = len.saturating_add(bytes.len() as u64);
            (json!({"id": id.as_str(), "len": bytes.len() as u64}), Bytes::from(bytes))
        })
        .unzip();
    (json!({"docs": docs, "files": files, "len": len}), blobs)
}

/// Decodes a `ChainGet` reply: its header, and the files its chunks
/// carried, one buffer each, as [`reply_parts`] announced them. An entry
/// that is not a document, or a file count or length that disagrees with
/// the list, is the peer's fault.
pub fn decode_chain_reply(
    mut header: Value,
    files: Vec<Vec<u8>>,
) -> Result<RecoveryReads, WireError> {
    let bad = |what: &str| WireError::BadHeader(format!("chain_get reply: {what}"));
    let listed: Vec<(FileId, u64)> = chain_files(&header)?
        .into_iter()
        .map(|(id, len)| (FileId::from_string(id.to_string()), len))
        .collect();
    if listed.len() != files.len()
        || listed.iter().zip(&files).any(|((_, len), bytes)| *len != bytes.len() as u64)
    {
        return Err(bad("the files received disagree with the files listed"));
    }
    let entries = match header.as_object_mut().and_then(|h| h.remove("docs")) {
        Some(Value::Array(entries)) => entries,
        _ => return Err(bad("missing `docs` list")),
    };
    let docs = entries
        .into_iter()
        .map(|mut entry| {
            let id = header_str(&entry, "id").map(|id| DocId::from_string(id.to_string()));
            let kind = header_str(&entry, "kind").map(str::to_string);
            let body = entry.as_object_mut().and_then(|e| e.remove("body"));
            match (id, kind, body) {
                (Ok(id), Ok(kind), Some(body)) => Ok(Document { id, kind, body }),
                _ => Err(bad("a `docs` entry is not a document")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let files = listed.into_iter().map(|(id, _)| id).zip(files).collect();
    Ok(RecoveryReads { docs, files })
}

/// Inbound byte accumulator with a consumed-prefix cursor: socket reads go
/// in at the back, whole frames come out at the front.
#[derive(Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
}

impl RecvBuf {
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes and consumes the next frame, or `Ok(None)` until one is
    /// complete. An error means framing is lost for good.
    pub fn next_frame(&mut self, version: WireVersion) -> Result<Option<Frame>, WireError> {
        let unread = self.buf.get(self.start..).unwrap_or_default();
        let Some((frame, used)) = try_decode_frame(unread, version)? else {
            return Ok(None);
        };
        // Neither can saturate: `used` is at most the unread length.
        self.start = self.start.saturating_add(used);
        // Reclaim the consumed prefix once it dominates the buffer,
        // keeping amortized cost linear.
        if self.start > 4096 && self.start.saturating_mul(2) >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

/// Reads the string field `key` from a frame header.
pub fn header_str<'a>(header: &'a Value, key: &str) -> Result<&'a str, WireError> {
    header
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::BadHeader(format!("missing string field `{key}`")))
}

/// Reads the u64 field `key` from a frame header.
pub fn header_u64(header: &Value, key: &str) -> Result<u64, WireError> {
    header
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| WireError::BadHeader(format!("missing integer field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes a buffer that must hold exactly one whole frame.
    fn decode_whole(wire: &[u8], version: WireVersion) -> Frame {
        let (frame, used) = try_decode_frame(wire, version).unwrap().unwrap();
        assert_eq!(used, wire.len());
        frame
    }

    #[test]
    fn frame_round_trips() {
        let frame = Frame::with_payload(
            Opcode::FilePut,
            json!({"len": 3, "meta": {"k": [1, 2]}}),
            Bytes::copy_from_slice(b"abc"),
        );
        let encoded = encode_frame_v(&frame, WireVersion::V1).unwrap();
        assert_eq!(decode_whole(&encoded, WireVersion::V1), frame);
    }

    #[test]
    fn v2_frame_round_trips_with_request_id() {
        let frame = Frame::with_payload(
            Opcode::FileGet,
            json!({"id": "f-1"}),
            Bytes::copy_from_slice(b"xyz"),
        )
        .with_request_id(0xDEAD_BEEF_F00D_u64);
        let encoded = encode_frame_v(&frame, WireVersion::V2).unwrap();
        let decoded = decode_whole(&encoded, WireVersion::V2);
        assert_eq!(decoded, frame);
        assert_eq!(decoded.request_id, 0xDEAD_BEEF_F00D_u64);
    }

    #[test]
    fn v1_encoding_does_not_carry_the_request_id() {
        let frame = Frame::new(Opcode::Hello, json!({"version": 2})).with_request_id(42);
        let encoded = encode_frame_v(&frame, WireVersion::V1).unwrap();
        assert_eq!(encoded.len() + 8, encode_frame_v(&frame, WireVersion::V2).unwrap().len());
        let decoded = decode_whole(&encoded, WireVersion::V1);
        assert_eq!(decoded.request_id, 0, "v1 framing has no id field");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = Frame::new(Opcode::Ping, json!({"version": 2}));
        for version in [WireVersion::V1, WireVersion::V2] {
            let encoded = encode_frame_v(&frame, version).unwrap();
            for cut in 0..encoded.len() {
                // Buffered: not yet a frame. From a stream that ends
                // there: an error, never a frame.
                assert!(
                    matches!(try_decode_frame(&encoded[..cut], version), Ok(None)),
                    "{version:?} cut at {cut} of {} decoded anyway",
                    encoded.len()
                );
                assert!(read_frame_counted(&mut &encoded[..cut], version).is_err());
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_slice(&[0u8; 16]);
        match try_decode_frame(&buf, WireVersion::V2) {
            Err(WireError::Oversized(n)) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(matches!(
            read_frame_counted(&mut &buf[..], WireVersion::V2),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let frame = Frame::new(Opcode::Ping, json!({}));
        let mut bytes = encode_frame_v(&frame, WireVersion::V2).unwrap().to_vec();
        bytes[4] = 0xEE; // the opcode byte, after the u32 length prefix
        match try_decode_frame(&bytes, WireVersion::V2) {
            Err(WireError::BadOpcode(0xEE)) => {}
            other => panic!("expected BadOpcode, got {other:?}"),
        }
    }

    #[test]
    fn index_matches_all_order() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "index() drifted from ALL order for {}", op.name());
        }
    }

    #[test]
    fn opcode_bytes_are_unique() {
        for (i, a) in Opcode::ALL.into_iter().enumerate() {
            for b in Opcode::ALL.into_iter().skip(i + 1) {
                assert_ne!(a as u8, b as u8, "{} and {} share a byte", a.name(), b.name());
            }
        }
    }

    #[test]
    fn oversized_frame_is_rejected_at_encode_time() {
        let frame = Frame::with_payload(
            Opcode::FilePut,
            json!({}),
            Bytes::from(vec![0u8; MAX_FRAME_LEN + 1]),
        );
        match encode_frame_v(&frame, WireVersion::V2) {
            Err(WireError::Oversized(_)) => {}
            other => panic!("expected Oversized, got {:?}", other.map(|b| b.len())),
        }
    }

    #[test]
    fn chunked_blob_round_trips_over_a_stream() {
        let blob = Bytes::from((0..200_000u32).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>());
        let mut wire = Vec::new();
        for frame in chunk_frames(9, &blob) {
            wire.extend_from_slice(&encode_frame_v(&frame, WireVersion::V2).unwrap());
        }
        // 200_000 bytes = 4 chunks of ≤ 64 KiB, fed to the receive buffer
        // in socket-sized reads that ignore frame boundaries.
        let mut recv = RecvBuf::new();
        let mut blob_in = BlobAssembler::new(blob.len() as u64).unwrap();
        let mut chunks = 0;
        for read in wire.chunks(50_000) {
            recv.extend(read);
            while let Some(frame) = recv.next_frame(WireVersion::V2).unwrap() {
                assert_eq!((frame.opcode, frame.request_id), (Opcode::Chunk, 9));
                assert!(frame.payload.len() <= CHUNK_SIZE);
                blob_in.push(&frame.payload).unwrap();
                chunks += 1;
            }
        }
        assert_eq!(chunks, 4);
        assert!(blob_in.is_complete());
        assert_eq!(blob_in.into_blob(), blob.to_vec());
        assert!(recv.buf.len() - recv.start == 0, "every wire byte was consumed");
    }

    #[test]
    fn assembler_rejects_bad_chunk_accounting() {
        let protocol = |r: Result<(), WireError>| matches!(r, Err(WireError::Protocol(_)));
        // A chunk one byte past the announcement, alone or after others.
        assert!(protocol(BlobAssembler::new(50).unwrap().push(&[7u8; 51])));
        let mut blob = BlobAssembler::new(50).unwrap();
        blob.push(&[7u8; 30]).unwrap();
        assert!(protocol(blob.push(&[7u8; 21])));
        // An empty chunk makes no progress and would never terminate.
        assert!(protocol(BlobAssembler::new(50).unwrap().push(&[])));
        // Nothing may follow a completed (or empty) transfer.
        let mut empty = BlobAssembler::new(0).unwrap();
        assert!(empty.is_complete());
        assert!(protocol(empty.push(&[1])));
        // The announcement itself is bounded.
        assert!(BlobAssembler::new(MAX_BLOB_LEN).is_ok());
        assert!(matches!(BlobAssembler::new(MAX_BLOB_LEN + 1), Err(WireError::Protocol(_))));
    }

    proptest! {
        #[test]
        fn any_split_into_chunks_reassembles_byte_identical(
            blob in prop::collection::vec(0u8..=255, 0..200_000),
            cuts in prop::collection::vec(1usize..=CHUNK_SIZE, 1..16),
        ) {
            let mut assembler = BlobAssembler::new(blob.len() as u64).unwrap();
            let mut rest = blob.as_slice();
            for len in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                prop_assert!(!assembler.is_complete());
                let (chunk, tail) = rest.split_at((*len).min(rest.len()));
                assembler.push(chunk).unwrap();
                rest = tail;
            }
            prop_assert!(assembler.is_complete());
            prop_assert_eq!(assembler.into_blob(), blob);
        }
    }

    #[test]
    fn chunk_frames_share_the_blob_allocation() {
        let blob = Bytes::from((0..150_000u32).map(|i| (i % 255) as u8).collect::<Vec<u8>>());
        let frames = chunk_frames(9, &blob);
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f.request_id == 9));
        let total: usize = frames.iter().map(|f| f.payload.len()).sum();
        assert_eq!(total, blob.len());
        // Zero-copy: the reassembled bytes are identical without any copy
        // having happened at split time.
        let mut back = Vec::new();
        for f in &frames {
            back.extend_from_slice(&f.payload);
        }
        assert_eq!(back, blob.to_vec());
    }

    fn doc(i: u64, body: Value) -> Document {
        Document { id: DocId::from_string(format!("d-{i}")), kind: "k".into(), body }
    }

    #[test]
    fn a_chain_reply_round_trips_into_one_buffer_per_file() {
        let files = vec![
            (FileId::from_string("f-1".into()), vec![1u8; 100_000]),
            (FileId::from_string("f-2".into()), Vec::new()),
            (FileId::from_string("f-3".into()), vec![3u8; 70_000]),
        ];
        let docs = vec![doc(1, json!({"i": 1})), doc(2, json!([2]))];
        let (header, blobs) =
            encode_chain_reply(RecoveryReads { docs: docs.clone(), files: files.clone() });
        assert_eq!(blobs.len(), 3);
        let lens = reply_parts(Opcode::ChainGet, &header).unwrap().unwrap();
        assert_eq!(lens, vec![100_000, 0, 70_000]);
        // The files back to back in chunks that straddle file boundaries.
        let stream: Vec<u8> = blobs.iter().flat_map(|blob| blob.iter().copied()).collect();
        let mut assembler = BlobAssembler::with_parts(&lens).unwrap();
        for chunk in stream.chunks(30_000) {
            assert!(!assembler.is_complete());
            assembler.push(chunk).unwrap();
        }
        assert!(assembler.is_complete());
        let back = decode_chain_reply(header, assembler.into_parts()).unwrap();
        let ids = |docs: &[Document]| docs.iter().map(|d| d.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(&back.docs), ids(&docs));
        assert!(back.docs.iter().zip(&docs).all(|(a, b)| a.kind == b.kind && a.body == b.body));
        assert_eq!(back.files, files);
    }

    #[test]
    fn a_chain_reply_header_always_fits_one_frame() {
        let big = |i| doc(i, json!("x".repeat(1 << 20)));
        let reads = RecoveryReads { docs: (0..6).map(big).collect(), files: Vec::new() };
        let (header, _) = encode_chain_reply(reads);
        let kept = header["docs"].as_array().unwrap().len();
        assert_eq!(kept, 3, "the documents past the budget stay behind");
        let frame = Frame::new(Opcode::Ok, header).with_request_id(1);
        assert!(encode_frame_v(&frame, WireVersion::V2).is_ok());
    }

    #[test]
    fn a_chain_reply_whose_files_miss_its_len_is_refused() {
        let header = json!({"docs": [], "files": [{"id": "f-1", "len": 3}], "len": 4});
        assert!(matches!(reply_parts(Opcode::ChainGet, &header), Err(WireError::Protocol(_))));
        let files = json!([{"id": "f-1", "len": u64::MAX}, {"id": "f-2", "len": 2}]);
        let header = json!({"docs": [], "files": files, "len": 1});
        assert!(matches!(reply_parts(Opcode::ChainGet, &header), Err(WireError::Protocol(_))));
        // Parts may not add up past the blob bound either.
        let halves = [MAX_BLOB_LEN / 2 + 1, MAX_BLOB_LEN / 2];
        assert!(matches!(BlobAssembler::with_parts(&halves), Err(WireError::Protocol(_))));
        // Nor may the files received disagree with the list.
        let header = json!({"docs": [], "files": [{"id": "f-1", "len": 3}], "len": 3});
        assert!(decode_chain_reply(header, vec![vec![1, 2]]).is_err());
    }

    #[test]
    fn try_decode_frame_is_incremental() {
        let a = Frame::new(Opcode::DocIds, json!({})).with_request_id(1);
        let b = Frame::with_payload(Opcode::Chunk, json!({}), Bytes::copy_from_slice(b"pp"))
            .with_request_id(2);
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame_v(&a, WireVersion::V2).unwrap());
        wire.extend_from_slice(&encode_frame_v(&b, WireVersion::V2).unwrap());

        // Nothing decodes until the first frame is complete.
        let first_len = encode_frame_v(&a, WireVersion::V2).unwrap().len();
        for cut in 0..first_len {
            assert!(matches!(
                try_decode_frame(&wire[..cut], WireVersion::V2),
                Ok(None)
            ));
        }
        let (frame, used) = try_decode_frame(&wire, WireVersion::V2).unwrap().unwrap();
        assert_eq!(frame, a);
        assert_eq!(used, first_len);
        let (frame2, used2) = try_decode_frame(&wire[used..], WireVersion::V2).unwrap().unwrap();
        assert_eq!(frame2, b);
        assert_eq!(used + used2, wire.len());
    }
}
