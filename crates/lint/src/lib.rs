//! mmlib-lint — workspace static analysis for the mmlib repository.
//!
//! A zero-dependency, span-aware lint built on a hand-rolled Rust lexer
//! (the offline workspace has no crate registry, so `syn` is not an
//! option — and token-level analysis is all these rules need). It
//! enforces only the invariants rustc and clippy cannot see:
//!
//! - **X1** protocol cross-check: every opcode has a server dispatch
//!   arm, client plumbing, and test coverage; error replies must be
//!   asserted on, not merely mentioned.
//! - **M1** metric-taxonomy check: every `mmlib_*` metric name is
//!   declared (once, snake_case) in the central taxonomy and used.
//!
//! On top of the token layer sits a **structural pass** ([`structure`],
//! [`callgraph`]): item-tree recovery by brace matching, guard-scope
//! tracking, and per-crate call edges, powering the concurrency rules:
//!
//! - **L1** lock-order analysis: acquisition-order cycles and double
//!   acquisition (direct or across intra-crate call edges).
//! - **H1** I/O while a lock guard is live in scope.
//! - **G1** guard-balance for paired-accounting APIs declared in
//!   `lint-pairs.txt` (acquire/release call pairs, with owners).
//!
//! Suppression is explicit and budgeted: `// mmlib-lint: allow(RULE,
//! reason)` pragmas are counted against the committed ratchet file
//! `lint-budget.txt`, which may only go down.
//!
//! The toolchain owns the other four checks, with no code here: **P1**
//! (panic-freedom), **D1** (determinism hygiene; banned paths in the root
//! `clippy.toml`) and **C1** (truncating casts) are clippy lints each
//! guarded crate denies in its own `lib.rs`, and **F1** is rustc's
//! `unsafe_code = "forbid"` in the workspace lint table. They are
//! suppressed with `#[expect(lint, reason = "...")]`, which fails the
//! build by itself once stale; `tests/toolchain.rs` keeps them biting.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod pairs;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod source;
pub mod structure;

pub use engine::{Budget, Report, Workspace};
pub use pairs::Pairs;
pub use rules::Violation;
