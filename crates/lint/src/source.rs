//! Source-file model: lexed text plus the structure the rules query —
//! which crate a file belongs to, which lines are test-gated, and which
//! lines carry `mmlib-lint:` pragmas.

use crate::lexer::{lex, Token, TokenKind};
use crate::pragma::{parse_pragmas, Pragma};

/// Where a file sits in the workspace layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` or the facade `src/lib.rs` — library code.
    Lib,
    /// Tests, benches, examples, `src/bin/**` — exempt.
    Other,
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate the file belongs to (`"net"`, `"tensor"`, ... or `"mmlib"` for
    /// the facade).
    pub crate_name: String,
    pub kind: FileKind,
    pub tokens: Vec<Token>,
    /// Source lines, for snippets in findings.
    pub lines: Vec<String>,
    /// `mmlib-lint:` pragmas found in comments.
    pub pragmas: Vec<Pragma>,
    /// Half-open 1-based line ranges that are `#[cfg(test)]`/`#[test]`-gated.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds a file model from its workspace-relative path and text.
    pub fn new(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let (crate_name, kind) = classify(path);
        let pragmas = parse_pragmas(&tokens);
        let test_ranges = find_test_ranges(&tokens);
        SourceFile {
            path: path.to_string(),
            crate_name,
            kind,
            tokens,
            lines: text.lines().map(|l| l.to_string()).collect(),
            pragmas,
            test_ranges,
        }
    }

    /// Whether a 1-based line is inside a `#[cfg(test)]`-gated item.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.kind != FileKind::Lib
            || self.test_ranges.iter().any(|&(start, end)| line >= start && line < end)
    }

    /// The source line (1-based), trimmed, for finding snippets.
    pub fn snippet(&self, line: usize) -> String {
        self.lines.get(line.wrapping_sub(1)).map(|l| l.trim().to_string()).unwrap_or_default()
    }
}

/// Derives (crate name, file kind) from a workspace-relative path.
fn classify(path: &str) -> (String, FileKind) {
    let parts: Vec<&str> = path.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let crate_name = parts[1].to_string();
        let kind = match parts[2] {
            "src" if parts.get(3) == Some(&"bin") => FileKind::Other,
            "src" => FileKind::Lib,
            _ => FileKind::Other,
        };
        return (crate_name, kind);
    }
    if parts.first() == Some(&"src") {
        let kind = if parts.get(1) == Some(&"bin") { FileKind::Other } else { FileKind::Lib };
        return ("mmlib".to_string(), kind);
    }
    ("mmlib".to_string(), FileKind::Other)
}

/// Finds line ranges of items gated by `#[cfg(test)]` / `#[cfg(any(.., test,
/// ..))]` / `#[test]` / `#[bench]`. The range covers the attribute through
/// the end of the item it decorates (its matched `{...}` block, or the `;`
/// for out-of-line items).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            if let Some((is_test, attr_end)) = scan_attribute(&code, i + 1) {
                if is_test {
                    let start_line = code[i].line;
                    let end_line = item_end_line(&code, attr_end);
                    ranges.push((start_line, end_line));
                    // Skip past the whole gated item so nested attributes
                    // inside it are not re-scanned.
                    while i < code.len() && code[i].line < end_line {
                        i += 1;
                    }
                    continue;
                }
                i = attr_end;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Scans a `[...]` attribute starting at its `[`; returns whether it gates
/// test code and the index one past the closing `]`.
fn scan_attribute(code: &[&Token], open: usize) -> Option<(bool, usize)> {
    let mut depth = 0usize;
    let mut saw_cfg_or_test = false;
    let mut is_test = false;
    let mut j = open;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((is_test, j + 1));
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "cfg" || t.text == "cfg_attr" {
                saw_cfg_or_test = true;
            }
            // `#[test]`, `#[bench]` directly, or `test` anywhere inside a
            // `cfg(...)` condition (covers `any(test, feature = "...")`).
            if (t.text == "test" || t.text == "bench") && (saw_cfg_or_test || j == open + 1) {
                is_test = true;
            }
        }
        j += 1;
    }
    None
}

/// From the token after an attribute, finds the line one past the end of
/// the decorated item (skipping further attributes and doc comments).
fn item_end_line(code: &[&Token], mut i: usize) -> usize {
    // Skip stacked attributes.
    while i + 1 < code.len() && code[i].is_punct('#') && code[i + 1].is_punct('[') {
        let mut depth = 0usize;
        i += 1;
        while i < code.len() {
            if code[i].is_punct('[') {
                depth += 1;
            } else if code[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // The item body: everything until a `;` at depth 0 or the close of the
    // first `{...}` block.
    let mut depth = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return t.line + 1;
            }
        } else if t.is_punct(';') && depth == 0 {
            return t.line + 1;
        }
        i += 1;
    }
    code.last().map(|t| t.line + 1).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/net/src/server/io.rs"), ("net".to_string(), FileKind::Lib));
        assert_eq!(classify("crates/net/tests/loopback.rs"), ("net".to_string(), FileKind::Other));
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            ("bench".to_string(), FileKind::Other)
        );
        assert_eq!(classify("src/lib.rs"), ("mmlib".to_string(), FileKind::Lib));
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn lib2() {}\n";
        let f = SourceFile::new("crates/net/src/x.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(3));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src = "#[cfg(test)]\npub fn helper() {\n  body();\n}\nfn real() {}\n";
        let f = SourceFile::new("crates/net/src/x.rs", src);
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn test_files_are_fully_exempt() {
        let f = SourceFile::new("crates/net/tests/t.rs", "fn t() { x.unwrap(); }");
        assert!(f.in_test_code(1));
    }

    #[test]
    fn cfg_any_with_test_is_exempt() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() {} }\nfn real() {}\n";
        let f = SourceFile::new("crates/net/src/x.rs", src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn non_test_cfg_is_not_exempt() {
        let src = "#[cfg(unix)]\nfn u() { body(); }\n";
        let f = SourceFile::new("crates/net/src/x.rs", src);
        assert!(!f.in_test_code(2));
    }
}
