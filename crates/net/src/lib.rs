//! mmlib-net: the wire protocol between nodes and the model registry.
//!
//! The paper's system runs as a central server holding all model data
//! (metadata in MongoDB, files on a shared FS) with cluster nodes saving
//! and recovering models over the network (§4.1). This crate provides that
//! split for the reproduction with real bytes on real sockets:
//!
//! * [`protocol`] — length-prefixed binary frames (u32 length + opcode +
//!   frame id + JSON header + raw payload) with 64 KiB chunked blob
//!   streaming, so a 242 MB ResNet-152 snapshot never sits in one
//!   allocation twice. Every frame names the request it belongs to by its
//!   `u64` frame id; a connection opens with the `Hello` handshake and
//!   there is no other way in.
//! * [`RegistryServer`] — a TCP server over a [`mmlib_store::ModelStorage`]
//!   that serves each connection on a blocking thread of its own, one
//!   request at a time, admits at most `max_connections` of them (the rest
//!   are refused with `Busy`), and records per-opcode request/byte
//!   metrics.
//! * [`RemoteStore`] — a pooled client implementing
//!   [`mmlib_store::StorageBackend`], so the entire save/recover stack runs
//!   unmodified against a remote registry: each pooled connection serves
//!   one caller at a time, on the caller's own thread; retries with
//!   exponential backoff plus jitter, configurable through
//!   [`RemoteStore::builder`].
//!
//! This is the only network layer: `mmlib-dist`'s `run_flow_tcp` runs an
//! evaluation flow through it, while `run_flow` opens the storage root
//! directly (the paper's shared file system, no network at all).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod client;
pub mod fault;
pub mod protocol;
pub mod server;

pub use client::{RemoteStore, RemoteStoreBuilder, ServerStats};
pub use fault::NetFaults;
pub use protocol::{
    Frame, Opcode, WireError, WireVersion, CHUNK_SIZE, MAX_FRAME_LEN, PROTOCOL_V2,
};
pub use server::{ConfigError, RegistryServer, ServerConfig, ServerMetrics};

/// Pre-registers every net metric on `recorder`: the server's request
/// counters and latency histograms under every opcode label, its byte,
/// connection, load-shed and in-flight series, and the client pool gauge.
pub fn register_metrics(recorder: &mmlib_obs::Recorder) {
    use server::{
        NET_BYTES_IN_TOTAL, NET_BYTES_OUT_TOTAL, NET_CONNECTIONS_TOTAL, NET_INFLIGHT_REQUESTS,
        NET_LOAD_SHED_TOTAL, NET_REQUESTS_TOTAL, NET_REQUEST_SECONDS,
    };
    for op in Opcode::ALL {
        let label = Some(("opcode", op.name()));
        recorder.counter(NET_REQUESTS_TOTAL, label);
        recorder.histogram(NET_REQUEST_SECONDS, label, &mmlib_obs::DURATION_BUCKETS);
    }
    for name in [NET_BYTES_IN_TOTAL, NET_BYTES_OUT_TOTAL, NET_CONNECTIONS_TOTAL, NET_LOAD_SHED_TOTAL]
    {
        recorder.counter(name, None);
    }
    recorder.gauge(NET_INFLIGHT_REQUESTS, None);
    recorder.gauge(client::NET_POOL_CONNECTIONS, None);
}
