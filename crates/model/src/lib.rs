//! Model substrate for the mmlib reproduction.
//!
//! The paper evaluates its three save/recover approaches on five torchvision
//! computer-vision architectures (Table 2): MobileNetV2, GoogLeNet,
//! ResNet-18, ResNet-50 and ResNet-152. This crate re-implements those
//! architectures from scratch on top of `mmlib-tensor`:
//!
//! * [`layers`] — parameterized layers (conv, batch-norm, linear) with real
//!   forward **and** backward passes, in deterministic or parallel execution
//!   mode (the latter exhibits run-to-run floating-point divergence in its
//!   reductions, which the probing tool must detect).
//! * [`common`] — parameter-free layers: activations, pooling, dropout,
//!   flatten.
//! * [`module`] — the [`module::Module`] tree (sequential / residual /
//!   branched composition) with state-dict visitors, gradient plumbing, and
//!   per-layer trainability used by the parameter-update approach.
//! * [`arch`] — builders for the five evaluation architectures. Trainable
//!   parameter counts match the paper's Table 2 **exactly** and are asserted
//!   in tests (e.g. ResNet-152: 60,192,808 total / 2,049,000 when only the
//!   classifier is trainable).
//! * [`model`] — [`model::Model`]: an architecture id plus a module tree;
//!   the unit that mmlib saves and recovers.
//!
//! # A "layer" in mmlib terms
//!
//! The parameter-update approach diffs models *layer-wise* (paper §3.2). A
//! layer here is a leaf module that owns parameters (one conv, one
//! batch-norm, one linear); its state is the ordered set of its parameter
//! and buffer tensors. [`module::Module::layer_paths`] enumerates them in
//! canonical order — the order the Merkle tree in `mmlib-core` is built over.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod arch;
pub mod common;
pub mod layers;
pub mod model;
pub mod module;

pub use arch::ArchId;
pub use model::Model;
pub use module::{Ctx, Module};
