//! `mmlib-lint:` pragma parsing.
//!
//! One form, inside a `//` comment:
//!
//! * `// mmlib-lint: allow(H1, reason text)` — suppresses rule `H1` on the
//!   same line, or (for a comment-only line) on the next code line.
//!
//! The reason is mandatory: an allow without a stated reason is itself a
//! violation, and every suppression is counted against the committed
//! ratchet budget (`lint-budget.txt`), which may only decrease. Only the
//! rules this crate owns take pragmas; the toolchain's (P1, D1, C1, F1)
//! are suppressed with `#[expect(lint, reason = "...")]` attributes.

use crate::lexer::{Token, TokenKind};

/// One parsed (or malformed) pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule id the pragma names (`"H1"`, ...), uppercased.
    pub rule: String,
    /// The stated reason (may be empty — which is reported as malformed).
    pub reason: String,
    /// 1-based line the comment sits on: the pragma applies to this line,
    /// or to the next one when the comment stands alone.
    pub line: usize,
    /// Parse problem, if any (`None` = well-formed).
    pub error: Option<String>,
}

/// Extracts pragmas from a token stream's line comments.
pub fn parse_pragmas(tokens: &[Token]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = text.strip_prefix("mmlib-lint:") else { continue };
        out.push(parse_one(rest.trim(), t.line));
    }
    out
}

fn parse_one(body: &str, line: usize) -> Pragma {
    let malformed = |msg: &str| Pragma {
        rule: String::new(),
        reason: String::new(),
        line,
        error: Some(msg.to_string()),
    };

    let Some(rest) = body.strip_prefix("allow") else {
        return malformed("expected `allow(...)`");
    };
    let Some(inner) = rest.trim().strip_prefix('(').and_then(|r| r.strip_suffix(')')) else {
        return malformed("expected `(RULE, reason)` after allow");
    };
    let Some((rule, reason)) = inner.split_once(',') else {
        return malformed("missing `, reason` — every allow must state why");
    };
    let rule = rule.trim().to_uppercase();
    let reason = reason.trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
        return malformed("rule id must be alphanumeric (e.g. H1)");
    }
    if reason.is_empty() {
        return malformed("empty reason — every allow must state why");
    }
    Pragma { rule, reason, line, error: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Pragma> {
        parse_pragmas(&lex(src))
    }

    #[test]
    fn line_allow_parses() {
        let p = parse("s.write_all(b); // mmlib-lint: allow(H1, invariant: set above)");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rule, "H1");
        assert_eq!(p[0].reason, "invariant: set above");
        assert!(p[0].error.is_none());
    }

    #[test]
    fn missing_reason_is_malformed() {
        assert!(parse("// mmlib-lint: allow(H1)")[0].error.is_some());
        assert!(parse("// mmlib-lint: allow(H1, )")[0].error.is_some());
    }

    #[test]
    fn unknown_shape_is_malformed() {
        assert!(parse("// mmlib-lint: suppress(H1, x)")[0].error.is_some());
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        assert!(parse("// a normal comment about mmlib").is_empty());
    }

    #[test]
    fn reasons_may_contain_commas() {
        let p = parse("// mmlib-lint: allow(H1, bounded above, see check)");
        assert!(p[0].error.is_none());
        assert_eq!(p[0].reason, "bounded above, see check");
    }
}
