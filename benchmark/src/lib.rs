//! The repo's one benchmark: client-observed time-to-save, time-to-recover
//! and stored bytes over six workloads, attributed to tensor · model · core ·
//! store · net · lineage from outside the library. See `README.md`.

pub mod layers;
pub mod report;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod trace;
pub mod workload;
