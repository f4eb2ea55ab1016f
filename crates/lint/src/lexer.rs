//! A hand-rolled Rust lexer: just enough tokenization for span-aware rules.
//!
//! This is deliberately not a full Rust grammar. The rules in this crate
//! need four things a plain `grep` cannot give them:
//!
//! 1. **Comment/string awareness** — `x.lock()` inside a doc example or a
//!    string literal is not an acquisition, and pragmas live in comments.
//! 2. **Exact identifier tokens** — `flush_out` must not match the I/O
//!    method `flush`.
//! 3. **Brace structure** — `#[cfg(test)] mod tests { ... }` regions are
//!    exempt from library-code rules, which requires matching delimiters.
//! 4. **Line/column spans** — findings must point at the offending token.
//!
//! The lexer handles the awkward parts of Rust's lexical grammar that a
//! naive scanner gets wrong: nested block comments, raw strings with
//! arbitrary `#` fences, byte/raw-byte strings, char literals vs.
//! lifetimes, and numeric literals with underscores and exponents.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `as`, ...).
    Ident,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`). The
    /// token's `text` is the *decoded-enough* inner text for `"..."` (escape
    /// sequences left as-is) and the raw inner text for raw strings.
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Numeric literal (`0x10`, `1_000`, `2.5e-3`, `42u64`).
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`{`, `:`, `=`, `>`...).
    Punct,
    /// `//` comment (text excludes the slashes, includes doc `///`, `//!`).
    LineComment,
    /// `/* */` comment (text excludes the delimiters).
    BlockComment,
}

/// One token with its source span.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// The token's text. For `Str`/comments this is the inner text; for
    /// everything else the exact source slice.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in characters) of the token's first character.
    pub col: usize,
}

impl Token {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes Rust source. Unterminated constructs (string, block comment)
/// consume to end of input rather than erroring: the lint must keep going
/// on files rustc would reject, because it runs before the compiler.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, col: 1 }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => {
                    self.bump();
                    self.bump();
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c == '\n' {
                            break;
                        }
                        text.push(c);
                        self.bump();
                    }
                    out.push(Token { kind: TokenKind::LineComment, text, line, col });
                }
                '/' if self.peek(1) == Some('*') => {
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    let mut text = String::new();
                    while depth > 0 {
                        match (self.peek(0), self.peek(1)) {
                            (Some('/'), Some('*')) => {
                                depth += 1;
                                text.push_str("/*");
                                self.bump();
                                self.bump();
                            }
                            (Some('*'), Some('/')) => {
                                depth -= 1;
                                self.bump();
                                self.bump();
                                if depth > 0 {
                                    text.push_str("*/");
                                }
                            }
                            (Some(c), _) => {
                                text.push(c);
                                self.bump();
                            }
                            (None, _) => break,
                        }
                    }
                    out.push(Token { kind: TokenKind::BlockComment, text, line, col });
                }
                '"' => {
                    let text = self.string_body();
                    out.push(Token { kind: TokenKind::Str, text, line, col });
                }
                'r' | 'b' if self.is_string_prefix() => {
                    let (kind, text) = self.prefixed_literal();
                    out.push(Token { kind, text, line, col });
                }
                '\'' => {
                    let (kind, text) = self.char_or_lifetime();
                    out.push(Token { kind, text, line, col });
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    out.push(Token { kind: TokenKind::Ident, text, line, col });
                }
                c if c.is_ascii_digit() => {
                    let text = self.number();
                    out.push(Token { kind: TokenKind::Num, text, line, col });
                }
                c => {
                    self.bump();
                    out.push(Token { kind: TokenKind::Punct, text: c.to_string(), line, col });
                }
            }
        }
        out
    }

    /// Does the cursor sit on a raw/byte string or raw identifier prefix
    /// (`r"`, `r#"`, `br"`, `b"`, `b'`, `r#ident`)?
    fn is_string_prefix(&self) -> bool {
        match self.peek(0) {
            Some('r') => {
                // r" or r#...#" (raw string) or r#ident (raw identifier).
                let mut i = 1;
                while self.peek(i) == Some('#') {
                    i += 1;
                }
                self.peek(i) == Some('"')
                    || (i == 2 && self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start))
            }
            Some('b') => matches!(
                (self.peek(1), self.peek(2)),
                (Some('"'), _) | (Some('\''), _) | (Some('r'), Some('"')) | (Some('r'), Some('#'))
            ),
            _ => false,
        }
    }

    /// Lexes `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`, `r#ident`.
    fn prefixed_literal(&mut self) -> (TokenKind, String) {
        let first = self.bump();
        if first == Some('b') {
            match self.peek(0) {
                Some('"') => return (TokenKind::Str, self.string_body()),
                Some('\'') => {
                    let (_, text) = self.char_or_lifetime();
                    return (TokenKind::Char, text);
                }
                Some('r') => {
                    self.bump();
                    return (TokenKind::Str, self.raw_string_body());
                }
                _ => return (TokenKind::Ident, "b".to_string()),
            }
        }
        // first == 'r': either a raw string or a raw identifier.
        if self.peek(0) == Some('#') && self.peek(1).is_some_and(is_ident_start) {
            self.bump(); // '#'
            let mut text = String::from("r#");
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            return (TokenKind::Ident, text);
        }
        (TokenKind::Str, self.raw_string_body())
    }

    /// Lexes `"..."` starting at the opening quote; returns the inner text.
    fn string_body(&mut self) -> String {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    text.push(c);
                    self.bump();
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        text
    }

    /// Lexes `#*"..."#*` starting at the first `#` or `"`; returns inner text.
    fn raw_string_body(&mut self) -> String {
        let mut fence = 0usize;
        while self.peek(0) == Some('#') {
            fence += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // Candidate close: quote followed by `fence` hashes.
                for i in 0..fence {
                    if self.peek(1 + i) != Some('#') {
                        text.push(c);
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump();
                for _ in 0..fence {
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        text
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime) from `'\n'` (char).
    fn char_or_lifetime(&mut self) -> (TokenKind, String) {
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape + closing quote.
                let mut text = String::new();
                self.bump();
                if let Some(c) = self.bump() {
                    text.push(c);
                    // \u{...} and \x.. escapes: consume to the closing quote.
                    while let Some(c) = self.peek(0) {
                        if c == '\'' {
                            break;
                        }
                        text.push(c);
                        self.bump();
                    }
                }
                self.bump(); // closing quote
                (TokenKind::Char, text)
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'abc (lifetime): scan the ident,
                // then look for a closing quote.
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                    (TokenKind::Char, text)
                } else {
                    (TokenKind::Lifetime, text)
                }
            }
            Some(c) => {
                // Non-ident char literal like '.' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                (TokenKind::Char, c.to_string())
            }
            None => (TokenKind::Punct, "'".to_string()),
        }
    }

    /// Lexes a numeric literal (ints, floats, underscores, suffixes).
    fn number(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `0..n` is a range, not a float; `0.5` is a float.
                if self.peek(1) == Some('.') {
                    break;
                }
                if !self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    break;
                }
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && text.chars().last().is_some_and(|p| p == 'e' || p == 'E')
                && !text.starts_with("0x")
            {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        text
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn main() { x.unwrap(); }");
        assert!(toks.contains(&(TokenKind::Ident, "unwrap".to_string())));
        assert!(toks.contains(&(TokenKind::Punct, "{".to_string())));
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "x.unwrap() // not code";"#);
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Str));
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r##"let s = r#"a "quoted" b"#;"##);
        let s = toks.iter().find(|(k, _)| *k == TokenKind::Str).expect("string token");
        assert_eq!(s.1, "a \"quoted\" b");
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ real");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "real".to_string()));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) {}");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        let lifes: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(lifes.len(), 2);
    }

    #[test]
    fn escaped_char_literals() {
        let toks = kinds(r"let c = '\n'; let u = '\u{1F600}'; next");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "next"));
    }

    #[test]
    fn numbers_with_ranges_and_exponents() {
        let toks = kinds("for i in 0..10 { let x = 2.5e-3; let h = 0xFF_u8; }");
        let nums: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Num).map(|(_, t)| t.clone()).collect();
        assert_eq!(nums, vec!["0", "10", "2.5e-3", "0xFF_u8"]);
    }

    #[test]
    fn line_comments_capture_text() {
        let toks = kinds("x // mmlib-lint: allow(P1, reason)\ny");
        let c = toks.iter().find(|(k, _)| *k == TokenKind::LineComment).expect("comment");
        assert!(c.1.contains("mmlib-lint"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b\n    c");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 5));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = kinds(r#"let b = b"bytes"; let k = r#match; b'x'"#);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Str && t == "bytes"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Char && t == "x"));
    }
}
