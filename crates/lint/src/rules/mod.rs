//! The rule catalogue: the five rules no off-the-shelf lint can see.
//!
//! | id | name                  | scope                                   |
//! |----|-----------------------|-----------------------------------------|
//! | X1 | protocol cross-check  | `net` (protocol/server/client/tests)    |
//! | M1 | metric taxonomy       | every non-shim crate                    |
//! | L1 | lock-order analysis   | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//! | H1 | I/O under a held lock | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//! | G1 | guard-balance pairs   | crates named in `lint-pairs.txt`        |
//!
//! X1/M1 need the whole workspace; L1/H1/G1 run on the per-crate
//! structural model (`crate::callgraph`). P1, D1, C1 and F1 are not here:
//! clippy and rustc own them (see the crate docs).

pub mod g1;
pub mod h1;
pub mod l1;
pub mod m1;
pub mod x1;

use crate::source::SourceFile;

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`"X1"`, ... or `"LINT"` for meta findings).
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
