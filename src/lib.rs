//! # mmlib — efficiently managing deep learning models in a distributed environment
//!
//! A from-scratch Rust reproduction of the EDBT 2022 paper *"Efficiently
//! Managing Deep Learning Models in a Distributed Environment"*
//! (Strassenburg, Tolovski, Rabl): three approaches for saving and
//! recovering **exact** deep-learning model representations —
//!
//! * the **baseline approach** (complete snapshots),
//! * the **parameter-update approach** (Merkle-tree layer diffs against a
//!   base model), and
//! * the **model-provenance approach** (store the training provenance and
//!   recover by deterministic replay),
//!
//! together with every substrate they need: a tensor library with
//! deterministic and non-deterministic kernels, the five torchvision
//! evaluation architectures re-implemented with exact parameter counts,
//! deterministic data loading over synthetic Table 1 datasets, restorable
//! SGD training, an embedded JSON document + file store, a probing tool for
//! model reproducibility, and a distributed evaluation-flow simulator.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under its short name.
//!
//! ```
//! use mmlib::core::{RecoverOptions, SaveRequest, SaveService};
//! use mmlib::model::{ArchId, Model};
//! use mmlib::store::ModelStorage;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
//! let model = Model::new_initialized(ArchId::MobileNetV2, 7);
//! let id = svc.save(SaveRequest::full(&model)).unwrap().id;
//! let back = svc.recover_report(&id, RecoverOptions::default()).unwrap();
//! assert!(back.model.models_equal(&model));
//! ```

/// Update compression: varints, zero-RLE, byte planes, XOR-delta codec.
pub use mmlib_compress as compress;
/// The model management library: the three approaches, Merkle trees,
/// environment capture, verification, and the probing tool.
pub use mmlib_core as core;
/// Synthetic datasets (paper Table 1), containers, and the data loader.
pub use mmlib_data as data;
/// Evaluation flows and the distributed server/node simulation.
pub use mmlib_dist as dist;
/// Model lineage DAG, delta-chain compaction, and batch family recovery.
pub use mmlib_lineage as lineage;
/// Layers, blocks, and the five evaluation architectures (paper Table 2).
pub use mmlib_model as model;
/// Wire protocol, TCP registry server, and remote store client.
pub use mmlib_net as net;
/// Metrics registry (counters/gauges/histograms), phase clocks and spans,
/// and the Prometheus text exposition.
pub use mmlib_obs as obs;
/// Document store, file store, fault injection and physical fsck.
pub use mmlib_store as store;
/// Tensors, deterministic/parallel kernels, PRNG, SHA-256, serialization.
pub use mmlib_tensor as tensor;
/// Loss, restorable SGD, the train service, and training instrumentation.
pub use mmlib_train as train;
