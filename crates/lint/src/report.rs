//! Report rendering: one finding per line, then a summary line.

use std::fmt::Write as _;

use crate::engine::Report;

/// Renders the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        if v.line > 0 {
            let _ = writeln!(out, "{}: {}:{}:{}: {}", v.rule, v.path, v.line, v.col, v.message);
        } else {
            let _ = writeln!(out, "{}: {}: {}", v.rule, v.path, v.message);
        }
        if !v.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", v.snippet.trim());
        }
    }
    let allowed = report.allowed.len();
    let _ = writeln!(
        out,
        "mmlib-lint: {} file(s) scanned, {} violation(s), {} allowed by pragma",
        report.files_scanned,
        report.violations.len(),
        allowed,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;
    use std::collections::BTreeMap;

    #[test]
    fn text_includes_location_and_summary() {
        let report = Report {
            violations: vec![Violation {
                rule: "H1",
                path: "crates/net/src/client.rs".to_string(),
                line: 7,
                col: 3,
                message: "I/O under a held lock".to_string(),
                snippet: "s.write_all(b)".to_string(),
            }],
            allowed: vec![],
            allow_counts: BTreeMap::from([("H1".to_string(), 2)]),
            files_scanned: 4,
        };
        let text = render_text(&report);
        assert!(text.contains("H1: crates/net/src/client.rs:7:3:"));
        assert!(text.contains("4 file(s) scanned, 1 violation(s)"));
    }
}
