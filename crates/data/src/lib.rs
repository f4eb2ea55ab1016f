//! Data substrate for the mmlib reproduction.
//!
//! The paper's evaluation (Table 1) trains on four datasets: the ImageNet
//! 2012 validation set (`INet_val`, 50,000 images / 6.3 GB), a mini variant
//! (`mINet_val`, 1,400 images / 200 MB), and two 512-image COCO subsets
//! (`CF-512` 94.3 MB and `CO-512` 71.6 MB). None of these can ship with a
//! reproduction, and the approaches under study never look *inside* an
//! image — the baseline and parameter-update approaches ignore the dataset
//! entirely, and the provenance approach only (a) stores its bytes and
//! (b) feeds deterministic pixels into a training replay.
//!
//! We therefore synthesize datasets that preserve exactly the properties the
//! experiments depend on:
//!
//! * **image counts and byte sizes** match Table 1 (scaled by a configurable
//!   factor so the harness stays laptop-sized; ratios between datasets and
//!   between dataset and model sizes are preserved),
//! * **blob content is deterministic** — image `i` of a dataset is a
//!   seeded-PRNG byte string, so two machines materialize bit-identical
//!   datasets and the provenance approach's dataset checksum is meaningful,
//! * **pixels and labels derive deterministically** from the dataset seed
//!   and image index, so a training replay sees the same inputs.
//!
//! Modules:
//! * [`catalog`] — the Table 1 dataset inventory and [`catalog::DatasetId`].
//! * [`dataset`] — materialized [`dataset::Dataset`]s, blob access, decode.
//! * [`container`] — the single-file container the provenance approach
//!   stores ("we compress [the dataset] to a single file", §3.3).
//! * [`loader`] — a deterministic, shuffling, augmenting batch loader.

pub mod catalog;
pub mod container;
pub mod dataset;
pub mod loader;

pub use catalog::{DatasetId, DatasetSpec};
pub use dataset::Dataset;
pub use loader::{Batch, DataLoader};
