//! D1 — determinism hygiene.
//!
//! The provenance approach recovers a model by *re-executing* its training
//! (PAPER.md §3.3); byte-identical recovery therefore requires that nothing
//! on the tensor/train/model path reads ambient state. This rule bans
//! wall-clock reads and OS entropy in those crates' library code. Dedicated
//! timing modules (the Fig. 13 instrumentation) opt out with a file-level
//! `// mmlib-lint: allow-file(D1, reason)` pragma. The same ban covers
//! core/lineage/dist, where every duration comes from an `mmlib-obs`
//! `PhaseClock` or `SpanGuard` instead of a bare stopwatch.

use crate::rules::{Violation, D1_CRATES};
use crate::source::SourceFile;

/// Path suffixes banned in deterministic crates: each entry is a `::`
/// separated path tail matched against consecutive ident tokens.
const BANNED_PATHS: &[(&[&str], &str)] = &[
    (&["Instant", "now"], "wall-clock read"),
    (&["SystemTime", "now"], "wall-clock read"),
];

/// Bare identifiers banned in deterministic crates.
const BANNED_IDENTS: &[(&str, &str)] = &[
    ("thread_rng", "OS-seeded RNG"),
    ("from_entropy", "OS-seeded RNG"),
    ("OsRng", "OS entropy source"),
    ("getrandom", "OS entropy source"),
    ("RandomState", "randomly seeded hasher (nondeterministic iteration)"),
];

pub fn check(file: &SourceFile, out: &mut Vec<Violation>) {
    if !D1_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
    for (i, t) in code.iter().enumerate() {
        if file.in_test_code(t.line) {
            continue;
        }
        for (path, what) in BANNED_PATHS {
            if matches_path(&code, i, path) {
                out.push(Violation::at(
                    "D1",
                    file,
                    t.line,
                    t.col,
                    format!(
                        "{what} `{}` in deterministic crate `{}` — hashing/replay \
                         paths must not read ambient state (annotate a dedicated \
                         timing module with `mmlib-lint: allow-file(D1, ...)`)",
                        path.join("::"),
                        file.crate_name
                    ),
                ));
            }
        }
        for (ident, what) in BANNED_IDENTS {
            if t.is_ident(ident) {
                out.push(Violation::at(
                    "D1",
                    file,
                    t.line,
                    t.col,
                    format!(
                        "{what} `{ident}` in deterministic crate `{}` — seed PRNGs \
                         explicitly so replay reproduces bit-identical results",
                        file.crate_name
                    ),
                ));
            }
        }
    }
}

/// Does `code[i..]` spell `path[0] :: path[1] :: ...`?
fn matches_path(code: &[&crate::lexer::Token], i: usize, path: &[&str]) -> bool {
    let mut idx = i;
    for (n, seg) in path.iter().enumerate() {
        if idx >= code.len() || !code[idx].is_ident(seg) {
            return false;
        }
        idx += 1;
        if n + 1 < path.len() {
            if idx + 1 >= code.len() || !code[idx].is_punct(':') || !code[idx + 1].is_punct(':') {
                return false;
            }
            idx += 2;
        }
    }
    true
}
