//! The rule catalogue: the two rules no compiler lint or test owns.
//!
//! | id | name                  | scope                                   |
//! |----|-----------------------|-----------------------------------------|
//! | L1 | lock-order analysis   | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//! | H1 | I/O under a held lock | concurrent crates (see `l1::CONCURRENT_CRATES`) |
//!
//! Both run on the per-crate structural model (`crate::callgraph`).

pub mod h1;
pub mod l1;

use crate::source::SourceFile;

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`"L1"`, `"H1"`, or `"LINT"` for meta findings).
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
