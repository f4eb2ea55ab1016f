//! Distributed-environment simulation for the mmlib reproduction.
//!
//! The paper evaluates its approaches over *evaluation flows* (§4.1, §4.6):
//! sequences of the four use cases of Fig. 3 executed by a central server
//! and one or more nodes that share a document database and file system.
//!
//! * **U1** — the server develops an initial model and distributes it.
//! * **U2** — the server improves the model and deploys the update.
//! * **U3** — a node retrains its model on locally collected data and saves
//!   the derived model.
//! * **U4** — the server losslessly recovers any saved model.
//!
//! The *standard* flow is `U1, 4×U3, U2, 4×U3` on one node (10 models); the
//! distributed flows DIST-5/10/20 run ten U3 iterations per phase on 5/10/20
//! concurrent nodes (102/202/402 models — paper Table 3).
//!
//! Modules:
//! * [`flow`] — flow configuration and execution, producing per-save and
//!   per-recover records (storage bytes, TTS, TTR with breakdown):
//!   [`flow::run_flow`] over the shared storage directory, [`run_flow_tcp`]
//!   through a loopback `mmlib-net` registry.
//! * [`metrics`] — aggregation helpers (medians per use case, per node).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod flow;
pub mod metrics;

pub use flow::{
    run_flow_tcp, FlowConfig, FlowKind, FlowResult, RecoverRecord, SaveRecord, TrainParams,
};
pub use metrics::{median_duration, MedianSeries};
