//! Report rendering: human-readable text and machine-readable JSON.
//!
//! The JSON encoder is hand-rolled (the lint is dependency-free by
//! design) and emits a stable schema:
//!
//! ```json
//! {
//!   "tool": "mmlib-lint",
//!   "clean": false,
//!   "files_scanned": 97,
//!   "violations": [
//!     {"rule": "H1", "path": "crates/net/src/client.rs", "line": 192,
//!      "col": 31, "message": "...", "snippet": "..."}
//!   ],
//!   "allowed": 4,
//!   "allow_counts": {"H1": 4}
//! }
//! ```
//!
//! `allowed` counts the violations suppressed by pragmas; `allow_counts`
//! counts the *pragmas* per rule (the ratchet's unit).

use std::fmt::Write as _;

use crate::engine::Report;
use crate::rules::Violation;

/// Self-metric: findings per rule (active + pragma-allowed). Declared in
/// the obs taxonomy (`crates/obs/src/taxonomy.rs`) so M1 stays closed
/// over the lint crate itself.
pub const LINT_FINDINGS_TOTAL: &str = "mmlib_lint_findings_total";
/// Self-metric: wall-clock duration of one full analysis run.
pub const LINT_ANALYSIS_SECONDS: &str = "mmlib_lint_analysis_seconds";

/// Renders the lint's own metrics in Prometheus text exposition format
/// (for `--metrics`). The lint is dependency-free by design, so this is
/// hand-rolled rather than routed through `mmlib-obs` — but the names
/// live in the shared taxonomy and M1 cross-checks them.
pub fn render_self_metrics(report: &Report, seconds: f64) -> String {
    let mut per_rule: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for v in report.violations.iter().chain(&report.allowed) {
        *per_rule.entry(v.rule).or_default() += 1;
    }
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE {LINT_FINDINGS_TOTAL} counter");
    for (rule, count) in &per_rule {
        let _ = writeln!(out, "{LINT_FINDINGS_TOTAL}{{rule=\"{rule}\"}} {count}");
    }
    let _ = writeln!(out, "# TYPE {LINT_ANALYSIS_SECONDS} histogram");
    let _ = writeln!(out, "{LINT_ANALYSIS_SECONDS}_sum {seconds:.6}");
    let _ = writeln!(out, "{LINT_ANALYSIS_SECONDS}_count 1");
    out
}

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

/// Renders the machine-readable JSON report (stable schema, sorted keys).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str("\"tool\":\"mmlib-lint\",");
    let _ = write!(out, "\"clean\":{},", report.clean());
    let _ = write!(out, "\"files_scanned\":{},", report.files_scanned);
    out.push_str("\"violations\":[");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_violation(&mut out, v);
    }
    out.push_str("],");
    let _ = write!(out, "\"allowed\":{},", report.allowed.len());
    out.push_str("\"allow_counts\":{");
    for (i, (rule, count)) in report.allow_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(rule), count);
    }
    out.push_str("}}");
    out
}

fn push_violation(out: &mut String, v: &Violation) {
    out.push('{');
    let _ = write!(out, "\"rule\":{},", json_string(v.rule));
    let _ = write!(out, "\"path\":{},", json_string(&v.path));
    let _ = write!(out, "\"line\":{},", v.line);
    let _ = write!(out, "\"col\":{},", v.col);
    let _ = write!(out, "\"message\":{},", json_string(&v.message));
    let _ = write!(out, "\"snippet\":{}", json_string(v.snippet.trim()));
    out.push('}');
}

/// Escapes a string per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Report;
    use std::collections::BTreeMap;

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                rule: "H1",
                path: "crates/net/src/client.rs".to_string(),
                line: 7,
                col: 3,
                message: "I/O under a held lock: \"bad\"".to_string(),
                snippet: "s.write_all(b)".to_string(),
            }],
            allowed: vec![],
            allow_counts: BTreeMap::from([("H1".to_string(), 2)]),
            files_scanned: 4,
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = render_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"H1\""));
        assert!(json.contains("I/O under a held lock: \\\"bad\\\""));
        assert!(json.contains("\"allow_counts\":{\"H1\":2}"));
        assert!(json.contains("\"clean\":false"));
    }

    #[test]
    fn text_includes_location_and_summary() {
        let text = render_text(&sample());
        assert!(text.contains("H1: crates/net/src/client.rs:7:3:"));
        assert!(text.contains("4 file(s) scanned, 1 violation(s)"));
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn self_metrics_render_per_rule_counts() {
        let text = render_self_metrics(&sample(), 0.25);
        assert!(text.contains("mmlib_lint_findings_total{rule=\"H1\"} 1"));
        assert!(text.contains("mmlib_lint_analysis_seconds_sum 0.250000"));
        assert!(text.contains("mmlib_lint_analysis_seconds_count 1"));
    }
}
