//! What the server counts: requests per opcode, raw socket bytes,
//! connections, load shed, requests in flight.

use std::sync::Arc;
use std::time::Duration;

use mmlib_obs::{Counter, Gauge, Recorder};
use serde_json::{json, Value};

use crate::protocol::Opcode;

/// Per-opcode request counts, latency histograms, and byte totals —
/// recorded through an [`mmlib_obs::Recorder`] registry.
///
/// The hot-path counters (raw socket byte counts) go through cached
/// [`Counter`] handles, so counting stays a single `fetch_add` and totals
/// stay EXACT even under fault-injected truncation; the registry is what
/// makes the same numbers visible in the Prometheus exposition.
#[derive(Debug)]
pub struct ServerMetrics {
    recorder: Arc<Recorder>,
    requests: [Arc<Counter>; Opcode::ALL.len()],
    pub(super) bytes_in: Arc<Counter>,
    pub(super) bytes_out: Arc<Counter>,
    pub(super) connections: Arc<Counter>,
    pub(super) load_shed: Arc<Counter>,
    pub(super) inflight: Arc<Gauge>,
}

/// Counter of requests served, labeled `opcode="..."`.
pub const NET_REQUESTS_TOTAL: &str = "mmlib_net_requests_total";
/// Histogram of request service time, labeled `opcode="..."`.
pub const NET_REQUEST_SECONDS: &str = "mmlib_net_request_seconds";
/// Counter of wire bytes received.
pub const NET_BYTES_IN_TOTAL: &str = "mmlib_net_bytes_in_total";
/// Counter of wire bytes sent.
pub const NET_BYTES_OUT_TOTAL: &str = "mmlib_net_bytes_out_total";
/// Counter of connections admitted (refused ones count as load shed).
pub const NET_CONNECTIONS_TOTAL: &str = "mmlib_net_connections_total";
/// Counter of connections refused with a `Busy` reply to their `Hello`.
pub const NET_LOAD_SHED_TOTAL: &str = "mmlib_net_load_shed_total";
/// Gauge of requests currently in flight (admitted, response not yet sent).
pub const NET_INFLIGHT_REQUESTS: &str = "mmlib_net_inflight_requests";

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new(Arc::new(Recorder::new()))
    }
}

impl ServerMetrics {
    /// Creates metrics registered on `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> ServerMetrics {
        let requests = std::array::from_fn(|i| {
            recorder.counter(NET_REQUESTS_TOTAL, Some(("opcode", Opcode::ALL[i].name())))
        });
        let bytes_in = recorder.counter(NET_BYTES_IN_TOTAL, None);
        let bytes_out = recorder.counter(NET_BYTES_OUT_TOTAL, None);
        let connections = recorder.counter(NET_CONNECTIONS_TOTAL, None);
        let load_shed = recorder.counter(NET_LOAD_SHED_TOTAL, None);
        let inflight = recorder.gauge(NET_INFLIGHT_REQUESTS, None);
        ServerMetrics {
            recorder,
            requests,
            bytes_in,
            bytes_out,
            connections,
            load_shed,
            inflight,
        }
    }

    /// The registry backing these metrics.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Requests served for one opcode.
    pub fn requests(&self, op: Opcode) -> u64 {
        self.requests[op.index()].value()
    }

    /// Requests served across all opcodes.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|c| c.value()).sum()
    }

    /// Total raw socket bytes received.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.value()
    }

    /// Total raw socket bytes sent.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.value()
    }

    /// Connections admitted.
    pub fn connections(&self) -> u64 {
        self.connections.value()
    }

    /// Connections refused with `Busy` because `max_connections` were
    /// already served.
    pub fn load_shed(&self) -> u64 {
        self.load_shed.value()
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> f64 {
        self.inflight.value()
    }

    /// JSON snapshot, as served by the `Stats` opcode.
    pub fn snapshot(&self) -> Value {
        let mut by_opcode = serde_json::Map::new();
        for op in Opcode::ALL {
            let n = self.requests(op);
            if n > 0 {
                by_opcode.insert(op.name().to_string(), json!(n));
            }
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the gauge counts whole admitted requests; a float-to-int `as` saturates"
        )]
        let inflight = self.inflight() as u64;
        json!({
            "requests": Value::Object(by_opcode),
            "total_requests": self.total_requests(),
            "bytes_in": self.bytes_in(),
            "bytes_out": self.bytes_out(),
            "connections": self.connections(),
            "load_shed": self.load_shed(),
            "inflight": inflight,
        })
    }

    /// The full registry in Prometheus text format, as served by the
    /// `StatsText` opcode.
    pub fn render_text(&self) -> String {
        self.recorder.render_text()
    }

    pub(super) fn count(&self, op: Opcode) {
        self.requests[op.index()].add(1);
    }

    pub(super) fn observe_latency(&self, op: Opcode, elapsed: Duration) {
        self.recorder.observe_duration(NET_REQUEST_SECONDS, ("opcode", op.name()), elapsed);
    }
}
