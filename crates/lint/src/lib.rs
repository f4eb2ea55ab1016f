//! mmlib-lint — the two workspace checks nothing else owns.
//!
//! A zero-dependency, span-aware lint built on a hand-rolled Rust lexer
//! (the offline workspace has no crate registry, so `syn` is not an
//! option — and token-level analysis is all these rules need). On top of
//! the token layer sits a **structural pass** ([`structure`],
//! [`callgraph`]): item-tree recovery by brace matching, guard-scope
//! tracking, and per-crate call edges, powering the two concurrency rules:
//!
//! - **L1** lock-order analysis: acquisition-order cycles and double
//!   acquisition (direct or across intra-crate call edges).
//! - **H1** I/O while a lock guard is live in scope.
//!
//! Both stay because a seeded mutation of each gets past every test suite
//! (DESIGN.md "Static analysis"): a lock-order inversion that no schedule
//! of today's callers can deadlock, and a lock held across a whole I/O
//! pass that only adds latency. Every other invariant has a compiler or
//! test owner.
//!
//! Suppression is explicit and budgeted: `// mmlib-lint: allow(RULE,
//! reason)` pragmas are counted against the committed ratchet file
//! `lint-budget.txt`, which may only go down.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod source;
pub mod structure;

pub use engine::{Budget, Report, Workspace};
pub use rules::Violation;
