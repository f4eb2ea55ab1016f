//! X1 — protocol cross-check.
//!
//! Every opcode in `crates/net/src/protocol.rs` must be (a) dispatched by a
//! server match arm, (b) referenced by client/protocol plumbing outside the
//! enum's own definition, and (c) mentioned by at least one test under
//! `crates/net/tests/`. Adding an opcode without wiring all three — or
//! deleting a dispatch arm behind a wildcard — fails the gate. Opcode
//! discriminants must also be pairwise distinct: two variants sharing a
//! wire byte would decode ambiguously, and `#[repr(u8)]` only catches the
//! collision at compile time when both are written as literals.

use crate::lexer::{Token, TokenKind};
use crate::rules::Violation;
use crate::source::SourceFile;

pub const PROTOCOL: &str = "crates/net/src/protocol.rs";
pub const SERVER: &str = "crates/net/src/server/handlers.rs";
pub const CLIENT: &str = "crates/net/src/client.rs";
pub const NET_TESTS_DIR: &str = "crates/net/tests/";

/// Server-side error replies. A bare mention in a test is not enough for
/// these: a test must *assert* on them (an `Err`/`Busy` reply that stops
/// being emitted regresses silently if nothing checks for it).
pub const ERROR_REPLIES: &[&str] = &["Err", "Busy"];

pub fn check(files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(protocol) = files.iter().find(|f| f.path == PROTOCOL) else {
        // No protocol file in this (possibly partial, in-memory) workspace:
        // nothing to cross-check.
        return;
    };
    let variants = opcode_variants(protocol);
    if variants.is_empty() {
        out.push(Violation::at(
            "X1",
            protocol,
            0,
            0,
            "no `enum Opcode` variants found in protocol.rs — the cross-check \
             has nothing to verify (was the enum renamed?)"
                .to_string(),
        ));
        return;
    }

    let server = files.iter().find(|f| f.path == SERVER);
    let client = files.iter().find(|f| f.path == CLIENT);
    let tests: Vec<&SourceFile> =
        files.iter().filter(|f| f.path.starts_with(NET_TESTS_DIR)).collect();

    let dispatched = server.map(dispatch_arms).unwrap_or_default();
    let mut mentioned_client: Vec<String> = client.map(opcode_mentions).unwrap_or_default();
    // Plumbing shared by both sides lives in protocol.rs free functions
    // (chunk streaming); mentions there count, mentions inside the enum's
    // own impl blocks do not.
    mentioned_client.extend(opcode_mentions_outside_own_impls(protocol));
    let mentioned_tests: Vec<String> =
        tests.iter().flat_map(|f| opcode_mentions(f)).collect();

    let discriminants = opcode_discriminants(protocol);
    for (idx, (variant, value, line)) in discriminants.iter().enumerate() {
        for (other, other_value, _) in &discriminants[..idx] {
            if value == other_value {
                out.push(Violation::at(
                    "X1",
                    protocol,
                    *line,
                    0,
                    format!(
                        "opcode `{variant}` reuses wire discriminant {value:#04x} \
                         already taken by `{other}` — frames would decode ambiguously"
                    ),
                ));
            }
        }
    }

    for (variant, line) in &variants {
        if server.is_some() && !dispatched.contains(variant) {
            out.push(Violation::at(
                "X1",
                protocol,
                *line,
                0,
                format!(
                    "opcode `{variant}` has no dispatch arm (`Opcode::{variant} =>`) \
                     in server/handlers.rs — requests with this opcode fall through"
                ),
            ));
        }
        if client.is_some() && !mentioned_client.contains(variant) {
            out.push(Violation::at(
                "X1",
                protocol,
                *line,
                0,
                format!(
                    "opcode `{variant}` is never referenced by client.rs or \
                     protocol.rs plumbing — there is no way to exercise it"
                ),
            ));
        }
        if !tests.is_empty() && !mentioned_tests.contains(variant) {
            out.push(Violation::at(
                "X1",
                protocol,
                *line,
                0,
                format!(
                    "opcode `{variant}` is not mentioned by any test under \
                     crates/net/tests/ — wire coverage is unverified"
                ),
            ));
        }
    }

    // Reply-side gap: error replies must appear in assertion context in at
    // least one test, not merely be mentioned.
    if !tests.is_empty() {
        for reply in ERROR_REPLIES {
            let Some((_, line)) = variants.iter().find(|(v, _)| v == reply) else { continue };
            if !tests.iter().any(|f| has_asserted_mention(f, reply)) {
                out.push(Violation::at(
                    "X1",
                    protocol,
                    *line,
                    0,
                    format!(
                        "error reply opcode `{reply}` is never asserted by a test \
                         under crates/net/tests/ — a server that stops emitting it \
                         would regress silently"
                    ),
                ));
            }
        }
    }
}

/// Whether the file contains `Opcode::<variant>` in assertion context: an
/// `assert*`/`matches` call within the preceding dozen tokens, or an
/// adjacent `==` / `=>` (match arm on the reply opcode).
fn has_asserted_mention(file: &SourceFile, variant: &str) -> bool {
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    for i in 0..code.len() {
        if opcode_path_at(&code, i).as_deref() != Some(variant) {
            continue;
        }
        let assertish = (i.saturating_sub(12)..i).any(|j| {
            matches!(
                code[j].text.as_str(),
                "assert" | "assert_eq" | "assert_ne" | "debug_assert" | "debug_assert_eq"
                    | "matches"
            ) && code[j].kind == TokenKind::Ident
        });
        // `x == Opcode::V`, `Opcode::V == x`, or a `Opcode::V =>` match arm.
        let eq_before = i >= 2 && code[i - 1].is_punct('=') && code[i - 2].is_punct('=');
        let after = i + 4; // token past `Opcode :: V`
        let eq_after = code.get(after).is_some_and(|t| t.is_punct('='))
            && code.get(after + 1).is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
        if assertish || eq_before || eq_after {
            return true;
        }
    }
    false
}

/// Extracts `enum Opcode { Variant = 0x.., ... }` variant names and the
/// line each is declared on.
pub fn opcode_variants(protocol: &SourceFile) -> Vec<(String, usize)> {
    let code: Vec<&Token> = protocol.code_tokens().map(|(_, t)| t).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("enum") && code.get(i + 1).is_some_and(|t| t.is_ident("Opcode")) {
            // Scan the brace block: variants are idents at depth 1 followed
            // by `=` (discriminant) or `,` or `}`.
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < code.len() {
                let t = code[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    if depth == 1 {
                        return out;
                    }
                    depth -= 1;
                } else if depth == 1 && t.kind == TokenKind::Ident {
                    let next = code.get(j + 1);
                    if next.is_some_and(|n| n.is_punct('=') || n.is_punct(',') || n.is_punct('}')) {
                        out.push((t.text.clone(), t.line));
                        // Skip the discriminant expression to its comma.
                        while j < code.len() && !code[j].is_punct(',') && !code[j].is_punct('}') {
                            j += 1;
                        }
                        continue;
                    }
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Extracts each `Variant = <literal>` discriminant from `enum Opcode` as
/// `(variant, value, line)`. Variants without a literal discriminant are
/// skipped (rustc assigns those, and it refuses collisions itself).
fn opcode_discriminants(protocol: &SourceFile) -> Vec<(String, u64, usize)> {
    let code: Vec<&Token> = protocol.code_tokens().map(|(_, t)| t).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("enum") && code.get(i + 1).is_some_and(|t| t.is_ident("Opcode")) {
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < code.len() {
                let t = code[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    if depth == 1 {
                        return out;
                    }
                    depth -= 1;
                } else if depth == 1
                    && t.kind == TokenKind::Ident
                    && code.get(j + 1).is_some_and(|n| n.is_punct('='))
                {
                    if let Some(value) = code.get(j + 2).and_then(|lit| parse_int(&lit.text)) {
                        out.push((t.text.clone(), value, t.line));
                    }
                    while j < code.len() && !code[j].is_punct(',') && !code[j].is_punct('}') {
                        j += 1;
                    }
                    continue;
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Parses a decimal or `0x` integer literal, ignoring `_` separators.
/// Literals this cannot parse (e.g. with a type suffix) are skipped by the
/// caller rather than guessed at.
fn parse_int(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    match clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => clean.parse().ok(),
    }
}

/// Variants appearing as a server match arm: `Opcode::V =>` or `Opcode::V |`.
fn dispatch_arms(server: &SourceFile) -> Vec<String> {
    let code: Vec<&Token> = server.code_tokens().map(|(_, t)| t).collect();
    let mut out = Vec::new();
    for i in 0..code.len() {
        if let Some(variant) = opcode_path_at(&code, i) {
            // The variant ident sits at i+3; an arm continues with `=>` or `|`.
            let after = code.get(i + 4);
            let is_arm = match after {
                Some(t) if t.is_punct('|') => true,
                Some(t) if t.is_punct('=') => code.get(i + 5).is_some_and(|n| n.is_punct('>')),
                _ => false,
            };
            if is_arm && !out.contains(&variant) {
                out.push(variant);
            }
        }
    }
    out
}

/// All `Opcode::V` path references in a file.
fn opcode_mentions(file: &SourceFile) -> Vec<String> {
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    (0..code.len()).filter_map(|i| opcode_path_at(&code, i)).collect()
}

/// `Opcode::V` references outside `enum Opcode` and `impl ... Opcode`
/// blocks (so `ALL`, `name()`, and `TryFrom` don't vacuously satisfy the
/// cross-check) and outside test code.
fn opcode_mentions_outside_own_impls(file: &SourceFile) -> Vec<String> {
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    // Mark token ranges of `enum Opcode {...}` and any `impl` whose header
    // mentions Opcode.
    let mut skip = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let header_start = if code[i].is_ident("enum")
            && code.get(i + 1).is_some_and(|t| t.is_ident("Opcode"))
        {
            Some(i)
        } else if code[i].is_ident("impl") {
            // Scan header to `{`; does it mention Opcode?
            let mut j = i + 1;
            let mut mentions = false;
            while j < code.len() && !code[j].is_punct('{') {
                if code[j].is_ident("Opcode") {
                    mentions = true;
                }
                j += 1;
            }
            if mentions {
                Some(i)
            } else {
                None
            }
        } else {
            None
        };
        if let Some(start) = header_start {
            // Mark through the matched brace block.
            let mut depth = 0usize;
            let mut j = start;
            while j < code.len() {
                skip[j] = true;
                if code[j].is_punct('{') {
                    depth += 1;
                } else if code[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    (0..code.len())
        .filter(|&i| !skip[i] && !file.in_test_code(code[i].line))
        .filter_map(|i| opcode_path_at(&code, i))
        .collect()
}

/// If `code[i..]` spells `Opcode :: V`, returns `V`.
fn opcode_path_at(code: &[&Token], i: usize) -> Option<String> {
    if code.get(i)?.is_ident("Opcode")
        && code.get(i + 1)?.is_punct(':')
        && code.get(i + 2)?.is_punct(':')
    {
        let v = code.get(i + 3)?;
        if v.kind == TokenKind::Ident && v.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            return Some(v.text.clone());
        }
    }
    None
}
