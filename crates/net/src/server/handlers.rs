//! Execute one request against storage and build its response. Every
//! request opcode has its arm in [`respond`].

use bytes::Bytes;
use mmlib_store::schema::{self, LineageGraph, SavedModelId};
use mmlib_store::{DocId, FileId, ModelStorage, StoreError};
use serde_json::{json, Value};

use super::metrics::ServerMetrics;
use crate::protocol::{
    encode_chain_reply, header_str, header_u64, Frame, Opcode, WireError, PROTOCOL_V2,
};

/// The deepest chain one `ChainGet` walks, whatever limit it asks for. A
/// deeper chain still recovers: the walk stops with the model-info
/// documents it read, and the client reads the rest itself.
const MAX_CHAIN_WALK: usize = 1024;

/// A request's response: one reply frame, plus the outbound blobs to
/// stream as chunks after it, back to back.
pub(super) struct Reply {
    pub(super) frame: Frame,
    pub(super) blobs: Vec<Bytes>,
}

impl Reply {
    pub(super) fn frame(frame: Frame) -> Reply {
        Reply { frame, blobs: Vec::new() }
    }
}

/// The reply that refuses a request whose header lacks a field.
fn bad_header(e: WireError) -> Frame {
    err_frame("bad_header", &e.to_string())
}

/// The id a request names in its header, or its `bad_header` refusal.
fn header_id(frame: &Frame) -> Result<&str, Frame> {
    header_str(&frame.header, "id").map_err(bad_header)
}

/// The document body a request carries, or its `bad_header` refusal.
fn header_body(frame: &Frame) -> Result<Value, Frame> {
    frame.header.get("body").cloned().ok_or_else(|| err_frame("bad_header", "missing `body`"))
}

/// Maps a storage result onto the wire: `Ok` header or store `Err` frame.
fn store_reply<T>(result: Result<T, StoreError>, ok: impl FnOnce(T) -> Value) -> Frame {
    match result {
        Ok(value) => ok_frame(ok(value)),
        Err(e) => store_err_frame(&e),
    }
}

/// The `{"ids": [...]}` header of a listing reply.
fn id_list<T>(ids: Vec<T>, as_str: impl Fn(&T) -> &str) -> Value {
    json!({"ids": ids.iter().map(|id| Value::String(as_str(id).to_string())).collect::<Vec<_>>()})
}

/// Handles one request frame against storage, building (not sending) the
/// response. `Err` is a malformed request's refusal; it and every storage
/// error come back as `Err` frames that poison only their own request id,
/// never the connection.
pub(super) fn respond(
    frame: &Frame,
    blob: Option<&[u8]>,
    storage: &ModelStorage,
    metrics: &ServerMetrics,
) -> Result<Reply, Frame> {
    let doc_id = || header_id(frame).map(|id| DocId::from_string(id.to_string()));
    let file_id = || header_id(frame).map(|id| FileId::from_string(id.to_string()));
    let reply = match frame.opcode {
        Opcode::Ping => match header_u64(&frame.header, "version").map_err(bad_header)? {
            v if v == u64::from(PROTOCOL_V2) => ok_frame(json!({"version": PROTOCOL_V2})),
            v => err_frame(
                "version_mismatch",
                &format!("connection speaks version {PROTOCOL_V2}, ping sent {v}"),
            ),
        },
        Opcode::DocInsert => {
            let kind = header_str(&frame.header, "kind").map_err(bad_header)?;
            store_reply(storage.insert_doc(kind, header_body(frame)?), |id| {
                json!({"id": id.as_str()})
            })
        }
        Opcode::DocGet => store_reply(storage.get_doc(&doc_id()?), |doc| {
            json!({"id": doc.id.as_str(), "kind": doc.kind, "body": doc.body})
        }),
        Opcode::DocUpdate => {
            let (id, body) = (doc_id()?, header_body(frame)?);
            // Reply with the document's kind so clients can account the new
            // stored size without an extra round trip.
            let updated = storage
                .get_doc(&id)
                .and_then(|doc| storage.update_doc(&id, body).map(|()| doc.kind));
            store_reply(updated, |kind| json!({"kind": kind}))
        }
        Opcode::DocContains => ok_frame(json!({"present": storage.contains_doc(&doc_id()?)})),
        Opcode::DocRemove => store_reply(storage.remove_doc(&doc_id()?), |()| json!({})),
        Opcode::DocIds => store_reply(storage.doc_ids(), |ids| id_list(ids, DocId::as_str)),
        Opcode::FilePut => {
            store_reply(storage.put_file(blob.unwrap_or(&[])), |id| json!({"id": id.as_str()}))
        }
        Opcode::FileGet => match storage.get_file(&file_id()?) {
            Ok(blob) => {
                let blob = Bytes::from(blob);
                let frame = ok_frame(json!({"len": blob.len() as u64}));
                return Ok(Reply { frame, blobs: vec![blob] });
            }
            Err(e) => store_err_frame(&e),
        },
        Opcode::FileSize => {
            store_reply(storage.file_size(&file_id()?), |size| json!({"len": size}))
        }
        Opcode::FileContains => {
            ok_frame(json!({"present": storage.contains_file(&file_id()?)}))
        }
        Opcode::FileRemove => store_reply(storage.remove_file(&file_id()?), |()| json!({})),
        Opcode::FileIds => store_reply(storage.file_ids(), |ids| id_list(ids, FileId::as_str)),
        Opcode::Stats => ok_frame(metrics.snapshot()),
        Opcode::StatsText => ok_frame(json!({"text": metrics.render_text()})),
        // Lineage is answered from the graph `mmlib lineage` builds locally,
        // read the same way: an unknown model is `MissingDocument`, a
        // cyclic chain `Malformed`.
        Opcode::LineageGet => {
            let id = SavedModelId(doc_id()?);
            let found = LineageGraph::read(storage)
                .and_then(|graph| Ok(serde_json::to_value(&graph.require(&id)?.record)?));
            let id = id.doc_id().as_str();
            store_reply(found, |record| json!({"id": id, "record": record}))
        }
        Opcode::LineageAncestry => {
            let id = SavedModelId(doc_id()?);
            let found = LineageGraph::read(storage).and_then(|graph| {
                let records = graph.ancestry_of(&id)?.into_iter().map(|node| &node.record);
                Ok(records.map(serde_json::to_value).collect::<Result<Vec<_>, _>>()?)
            });
            let id = id.doc_id().as_str();
            store_reply(found, |ancestry| json!({"id": id, "ancestry": ancestry}))
        }
        Opcode::ChainGet => {
            let tip = SavedModelId(doc_id()?);
            let limit = header_u64(&frame.header, "limit").map_err(bad_header)?;
            let limit = usize::try_from(limit).unwrap_or(usize::MAX).min(MAX_CHAIN_WALK);
            let reads = schema::recovery_reads(storage, &tip, limit);
            let (header, blobs) = encode_chain_reply(reads);
            return Ok(Reply { frame: ok_frame(header), blobs });
        }
        Opcode::Hello | Opcode::Ok | Opcode::Err | Opcode::Busy | Opcode::Chunk => {
            // Handled (or rejected) by the connection before it gets here.
            err_frame("protocol", &format!("{} is not a request", frame.opcode.name()))
        }
    };
    Ok(Reply::frame(reply))
}

pub(super) fn ok_frame(result: Value) -> Frame {
    Frame::new(Opcode::Ok, result)
}

pub(super) fn err_frame(code: &str, message: &str) -> Frame {
    Frame::new(Opcode::Err, json!({"code": code, "message": message}))
}

pub(super) fn busy_frame(retry_after_ms: u64) -> Frame {
    Frame::new(Opcode::Busy, json!({"code": "busy", "retry_after_ms": retry_after_ms}))
}

/// Maps a [`StoreError`] onto the wire so clients can reconstruct it.
fn store_err_frame(e: &StoreError) -> Frame {
    match e {
        StoreError::MissingDocument(id) => Frame::new(
            Opcode::Err,
            json!({"code": "missing_document", "message": e.to_string(), "id": id.as_str()}),
        ),
        StoreError::MissingFile(id) => Frame::new(
            Opcode::Err,
            json!({"code": "missing_file", "message": e.to_string(), "id": id.as_str()}),
        ),
        StoreError::Io(_) => err_frame("io", &e.to_string()),
        StoreError::Json(_) => err_frame("json", &e.to_string()),
        StoreError::Malformed(_) => err_frame("malformed", &e.to_string()),
        StoreError::Remote(_) => err_frame("remote", &e.to_string()),
    }
}
