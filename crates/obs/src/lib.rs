//! mmlib-obs: the observability substrate for mmlib.
//!
//! Zero-dependency (std only) metrics registry plus phase tracer. The rest
//! of the workspace records into a [`Recorder`] — counters for bytes/ops,
//! histograms for latencies, labeled phase histograms for save/recover
//! breakdowns — and anything with a terminal or a socket can read it back
//! as a deterministic snapshot or a Prometheus text exposition
//! ([`Recorder::render_text`]).
//!
//! Design rules:
//!
//! - **Record unconditionally.** Library code never asks "is observability
//!   on?" — it calls the recorder, and a disabled recorder returns after a
//!   single atomic load.
//! - **Global but overridable.** [`recorder()`] is the process default;
//!   anything needing isolated counts (a server under test, a bench run)
//!   constructs its own [`Recorder`] and threads it through.
//! - **Exact totals.** All primitives are atomic; concurrent recording
//!   loses nothing. Fault-injection tests assert byte counters down to the
//!   last truncated frame.
//!
//! ```
//! use mmlib_obs::Recorder;
//!
//! let r = Recorder::new();
//! r.inc_labeled("mmlib_store_ops_total", ("op", "doc_insert"), 1);
//! r.observe_labeled("mmlib_save_phase_seconds", ("phase", "hash"), 0.012);
//! assert_eq!(r.counter_value("mmlib_store_ops_total", Some(("op", "doc_insert"))), 1);
//! assert!(r.render_text().contains("# TYPE mmlib_save_phase_seconds histogram"));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

mod metrics;
mod phase;
mod recorder;
pub mod taxonomy;

pub use metrics::{Counter, Gauge, Histogram, DURATION_BUCKETS, SIZE_BUCKETS};
pub use phase::{PhaseBreakdown, PhaseClock, SpanGuard};
pub use recorder::{recorder, register_metrics, MetricSnapshot, Recorder, SnapshotValue};
