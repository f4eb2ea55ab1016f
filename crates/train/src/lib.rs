//! Training substrate for the mmlib reproduction.
//!
//! The provenance approach recovers a model by *re-executing its training*
//! (§3.3), which requires every training component to be (a) fully
//! determined by serializable configuration and (b) deterministic given a
//! seed and [`mmlib_tensor::ExecMode::Deterministic`]. This crate provides
//! those components:
//!
//! * [`loss`] — softmax cross-entropy with analytic gradient.
//! * [`optim`] — SGD with momentum; the momentum velocities are an *internal
//!   state* in the paper's taxonomy (§3.3), serialized to a state file by
//!   the provenance wrapper.
//! * [`service`] — [`service::TrainService`]: the "overall training logic"
//!   object of the paper's Fig. 5, binding a dataloader, an optimizer and
//!   hyper-parameters into a reproducible `train` method.
//! * [`timing`] — instrumented training that splits wall time into
//!   data-load / forward / backward, used by the deterministic-training
//!   study (paper Fig. 13).

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod adam;
pub mod loss;
pub mod optim;
pub mod service;
pub mod timing;

pub use loss::cross_entropy;
pub use adam::{Adam, AdamConfig};
pub use optim::{AnyOptimizer, OptimizerConfig, Sgd, SgdConfig};
pub use service::{ImageNetTrainService, TrainConfig, TrainService};
pub use timing::{timed_train, TrainTimings};
