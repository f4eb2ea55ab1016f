//! The rule catalogue.
//!
//! | id | name                  | scope                                   |
//! |----|-----------------------|-----------------------------------------|
//! | D1 | determinism hygiene   | `tensor`, `train`, `model` library code |
//! | P1 | panic-freedom         | `core`, `net`, `store`, `tensor`, `dist`, `obs`, `lineage` library code |
//! | C1 | truncating-cast audit | `net`, `store` library code             |
//! | F1 | unsafe-code forbid    | every non-shim crate root               |
//! | X1 | protocol cross-check  | `net` (protocol/server/client/tests)    |
//! | M1 | metric taxonomy       | every non-shim crate                    |
//! | L1 | lock-order analysis   | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//! | H1 | I/O under a held lock | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//! | G1 | guard-balance pairs   | crates named in `lint-pairs.txt`        |
//!
//! D1/P1/C1 are per-file token scans; F1/X1/M1 need the whole workspace;
//! L1/H1/G1 run on the per-crate structural model (`crate::callgraph`).

pub mod c1;
pub mod d1;
pub mod f1;
pub mod g1;
pub mod h1;
pub mod l1;
pub mod m1;
pub mod p1;
pub mod x1;

use crate::source::SourceFile;

/// Crates whose hashing/replay paths must be deterministic (PAPER.md §4.3:
/// recovery re-executes training and must reproduce bit-identical weights),
/// plus the save/recover stack above them (`core`, `lineage`, `dist`), which
/// reads time only through `mmlib-obs` (`PhaseClock` / `SpanGuard`) so there
/// is one timing mechanism from a save phase up to a flow record.
pub const D1_CRATES: &[&str] = &["tensor", "train", "model", "core", "lineage", "dist"];

/// Crates whose library code must not panic: a panic in these kills worker
/// threads mid-connection (net), poisons locks (obs), or aborts a recovery
/// that error handling would have survived (core/store/tensor/dist).
pub const P1_CRATES: &[&str] = &["core", "net", "store", "tensor", "dist", "obs", "lineage"];

/// Crates carrying wire formats, where a silently truncating cast on a byte
/// length is the PR 1 `transfer_time`-overflow bug class.
pub const C1_CRATES: &[&str] = &["net", "store"];

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`"D1"`, ... or `"LINT"` for meta findings).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 = whole file).
    pub line: usize,
    /// 1-based column (0 = whole line).
    pub col: usize,
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

impl Violation {
    pub fn at(rule: &'static str, file: &SourceFile, line: usize, col: usize, message: String) -> Violation {
        Violation { rule, path: file.path.clone(), line, col, message, snippet: file.snippet(line) }
    }
}
