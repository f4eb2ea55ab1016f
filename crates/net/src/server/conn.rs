//! One connection, served on its own thread: the handshake, then one
//! request at a time — read it (and an upload's chunks), answer it, write
//! the reply straight to the socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mmlib_store::fault::Fault;
use serde_json::json;

use super::handlers::{err_frame, ok_frame, respond, Reply};
use super::ServerState;
use crate::fault::NetFaults;
use crate::protocol::{
    chunk_frames, encode_frame_v, header_u64, BlobAssembler, Frame, Opcode, RecvBuf,
    WireVersion, PROTOCOL_V2,
};

/// How long a blocked read or write waits before the thread checks the
/// stop flag and the idle timeout again.
const POLL: Duration = Duration::from_millis(100);

/// The connection is done: the peer left, broke the protocol, a fault
/// closed it, or the server is stopping. Nothing is left to tell the peer.
struct Closed;

/// A connection as its thread owns it.
struct Conn<'a> {
    state: &'a ServerState,
    stream: TcpStream,
    recv: RecvBuf,
    scratch: Vec<u8>,
    /// When a byte last moved either way, for the idle timeout.
    last_activity: Instant,
}

/// Serves `stream` until it closes.
pub(super) fn serve(state: &ServerState, stream: TcpStream) {
    let ready = stream.set_nonblocking(false).is_ok()
        && stream.set_nodelay(true).is_ok()
        && stream.set_read_timeout(Some(POLL)).is_ok()
        && stream.set_write_timeout(Some(POLL)).is_ok();
    if !ready {
        return;
    }
    let mut conn = Conn {
        state,
        stream,
        recv: RecvBuf::new(),
        scratch: vec![0u8; 64 * 1024],
        last_activity: Instant::now(),
    };
    let _ = conn.run();
}

impl Conn<'_> {
    fn run(&mut self) -> Result<(), Closed> {
        let hello = self.next_frame(WireVersion::V1)?;
        self.handshake(&hello)?;
        loop {
            let frame = self.next_frame(WireVersion::V2)?;
            self.serve_request(frame)?;
        }
    }

    /// The handshake. A connection's first frame must be `Hello {"version":
    /// 2}`; the reply — acceptance or refusal — goes out in the same
    /// id-less framing the `Hello` came in, outside the fault schedule, so
    /// response ordinals count requests only. A refused connection closes.
    fn handshake(&mut self, frame: &Frame) -> Result<(), Closed> {
        let started = Instant::now();
        let asked = header_u64(&frame.header, "version").ok();
        if frame.opcode == Opcode::Hello && asked == Some(u64::from(PROTOCOL_V2)) {
            self.write(&encode(&ok_frame(json!({"version": PROTOCOL_V2})), WireVersion::V1)?)?;
            self.state.metrics.count(Opcode::Hello);
            self.state.metrics.observe_latency(Opcode::Hello, started.elapsed());
            return Ok(());
        }
        let refusal = err_frame(
            "version_mismatch",
            &format!(
                "server speaks version {PROTOCOL_V2} only and a connection must open with \
                 hello {{\"version\": {PROTOCOL_V2}}}; got {} with {}",
                frame.opcode.name(),
                asked.map_or("no version".to_string(), |v| format!("version {v}")),
            ),
        );
        self.write(&encode(&refusal, WireVersion::V1)?)?;
        Err(Closed)
    }

    /// Serves one request of an open session.
    fn serve_request(&mut self, frame: Frame) -> Result<(), Closed> {
        let request_id = frame.request_id;
        match frame.opcode {
            Opcode::Hello => {
                let message = "hello must be the first frame on a connection";
                Err(self.protocol_error(request_id, message))
            }
            Opcode::Chunk => {
                Err(self.protocol_error(request_id, "chunk without an announced transfer"))
            }
            Opcode::Ok | Opcode::Err | Opcode::Busy => {
                let message = format!("{} is not a request opcode", frame.opcode.name());
                Err(self.protocol_error(request_id, &message))
            }
            Opcode::FilePut => {
                let Ok(len) = header_u64(&frame.header, "len") else {
                    let reply = err_frame("bad_header", "missing integer field `len`");
                    return self.send(&[reply.with_request_id(request_id)], None);
                };
                // Bound the announcement before anything is counted for it.
                match BlobAssembler::new(len) {
                    Ok(blob) => self.serve_admitted(frame, Some(blob)),
                    Err(e) => Err(self.protocol_error(request_id, &e.to_string())),
                }
            }
            _ => self.serve_admitted(frame, None),
        }
    }

    /// Serves a request from its announcement to its reply: receives the
    /// upload it announced, answers it from storage, writes the reply. It
    /// counts on the in-flight gauge for all of that time.
    fn serve_admitted(
        &mut self,
        frame: Frame,
        upload: Option<BlobAssembler>,
    ) -> Result<(), Closed> {
        let started = Instant::now();
        let metrics = &self.state.metrics;
        metrics.count(frame.opcode);
        metrics.inflight.add(1.0);
        let served = self.receive_and_answer(&frame, upload, started);
        metrics.inflight.add(-1.0);
        served
    }

    fn receive_and_answer(
        &mut self,
        frame: &Frame,
        upload: Option<BlobAssembler>,
        started: Instant,
    ) -> Result<(), Closed> {
        let blob = match upload {
            Some(blob) => Some(self.receive_upload(frame.request_id, blob)?),
            None => None,
        };
        let state = self.state;
        let reply = respond(frame, blob.as_deref(), &state.storage, &state.metrics)
            .unwrap_or_else(Reply::frame);
        state.metrics.observe_latency(frame.opcode, started.elapsed());
        let mut frames = vec![reply.frame.with_request_id(frame.request_id)];
        for blob in &reply.blobs {
            frames.extend(chunk_frames(frame.request_id, blob));
        }
        // Serving is not idling: the idle clock restarts with the reply.
        self.last_activity = Instant::now();
        self.send(&frames, state.faults.as_deref())
    }

    /// Reads the chunks of the upload announced by request `request_id`
    /// until every announced byte has arrived. A connection carries one
    /// request at a time, so any other frame breaks the exchange.
    fn receive_upload(
        &mut self,
        request_id: u64,
        mut blob: BlobAssembler,
    ) -> Result<Vec<u8>, Closed> {
        while !blob.is_complete() {
            let frame = self.next_frame(WireVersion::V2)?;
            if frame.opcode != Opcode::Chunk || frame.request_id != request_id {
                let message = format!("expected a chunk of request {request_id}");
                return Err(self.protocol_error(frame.request_id, &message));
            }
            if let Err(e) = blob.push(&frame.payload) {
                return Err(self.protocol_error(request_id, &e.to_string()));
            }
        }
        Ok(blob.into_blob())
    }

    /// Answers a violation of the message exchange with an `Err {"code":
    /// "protocol"}` for `request_id`, outside the fault schedule (best
    /// effort); the connection then closes.
    fn protocol_error(&mut self, request_id: u64, message: &str) -> Closed {
        let reply = err_frame("protocol", message).with_request_id(request_id);
        if let Ok(encoded) = encode(&reply, WireVersion::V2) {
            let _ = self.write(&encoded);
        }
        Closed
    }

    /// Writes reply frames, consulting the fault schedule once per frame
    /// (replies *and* blob chunks):
    ///
    /// * `TruncateFrame`/`TornWrite` — only a prefix of the frame's bytes
    ///   is written, and the connection closes;
    /// * `DropConnection`/`ConnReset` — the connection closes at once;
    /// * `IoError` — *this one frame* vanishes and the connection lives
    ///   on: the injected loss of a single response, which must not
    ///   corrupt the next.
    fn send(&mut self, frames: &[Frame], faults: Option<&NetFaults>) -> Result<(), Closed> {
        for frame in frames {
            match faults.and_then(NetFaults::on_response) {
                None => {}
                Some(Fault::TruncateFrame { after_bytes })
                | Some(Fault::TornWrite { after_bytes }) => {
                    let encoded = encode(frame, WireVersion::V2)?;
                    // Saturate: a cut point beyond addressable memory means
                    // "the whole frame", which `min` clamps to its length.
                    let cut =
                        usize::try_from(after_bytes).unwrap_or(usize::MAX).min(encoded.len());
                    self.write(&encoded[..cut])?;
                    return Err(Closed);
                }
                Some(Fault::DropConnection) | Some(Fault::ConnReset) => return Err(Closed),
                Some(Fault::IoError) => continue,
                // Latency faults sleep inside the injector and are never
                // returned; any other variant belongs to the storage layer
                // — ignore it rather than kill the server.
                Some(_) => {}
            }
            self.write(&encode(frame, WireVersion::V2)?)?;
        }
        Ok(())
    }

    /// The next whole frame, reading the socket as needed. A framing error
    /// is answered (best effort) with a `protocol` error, and closes.
    fn next_frame(&mut self, version: WireVersion) -> Result<Frame, Closed> {
        loop {
            match self.recv.next_frame(version) {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => self.fill()?,
                Err(e) => {
                    // Framing is lost: tell the peer and close.
                    if let Ok(reply) = encode(&err_frame("protocol", &e.to_string()), version) {
                        let _ = self.write(&reply);
                    }
                    return Err(Closed);
                }
            }
        }
    }

    /// Reads what the socket has into the receive buffer, waiting for it in
    /// poll intervals. Closes on EOF, on a socket error, on stop, and when
    /// the connection has been idle too long.
    fn fill(&mut self) -> Result<(), Closed> {
        loop {
            if self.state.stop.load(Ordering::SeqCst) {
                return Err(Closed);
            }
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(Closed),
                Ok(n) => {
                    self.state.metrics.bytes_in.add(n as u64);
                    self.recv.extend(&self.scratch[..n]);
                    self.last_activity = Instant::now();
                    return Ok(());
                }
                Err(e) if is_timeout(&e) => self.check_idle()?,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Closed),
            }
        }
    }

    /// Writes all of `bytes`. They count into `bytes_out` before they go
    /// out, so a peer that has read a reply finds all of it counted; only a
    /// write that fails (the peer is gone) leaves bytes counted that never
    /// reached the socket. A peer that reads nothing for the idle timeout,
    /// or a server stopping meanwhile, closes the connection.
    fn write(&mut self, mut bytes: &[u8]) -> Result<(), Closed> {
        self.state.metrics.bytes_out.add(bytes.len() as u64);
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(Closed),
                Ok(n) => {
                    bytes = &bytes[n..];
                    self.last_activity = Instant::now();
                }
                Err(e) if is_timeout(&e) => {
                    if self.state.stop.load(Ordering::SeqCst) {
                        return Err(Closed);
                    }
                    self.check_idle()?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Closed),
            }
        }
        Ok(())
    }

    /// Closes a connection on which nothing has moved for the idle timeout.
    /// The close is silent: an error frame would later read back as a stale
    /// reply.
    fn check_idle(&self) -> Result<(), Closed> {
        match self.state.idle_timeout {
            Some(idle) if self.last_activity.elapsed() > idle => Err(Closed),
            _ => Ok(()),
        }
    }
}

/// A frame's bytes. A reply that does not fit a frame cannot be sent, and
/// the connection closes, so the client fails fast instead of waiting out
/// its timeout.
fn encode(frame: &Frame, version: WireVersion) -> Result<bytes::Bytes, Closed> {
    encode_frame_v(frame, version).map_err(|_| Closed)
}

/// Whether a socket error is a poll interval running out.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}
