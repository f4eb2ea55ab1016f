//! Structural pass: recovers the item tree (fn/impl/mod boundaries) from
//! the token stream by brace matching.
//!
//! This is deliberately not a parser. The concurrency rules (L1/H1) need
//! three structural facts a flat token scan cannot give them:
//!
//! 1. **Function extents** — which tokens belong to which function body,
//!    so held-lock state never leaks across function boundaries.
//! 2. **Qualified names** — `DocStore::stage` vs `FileStore::stage`, so
//!    findings read well (call *edges* are still keyed by bare name).
//! 3. **Block nesting** — the `{...}` block a guard is bound in, which is
//!    its drop scope.
//!
//! The recovery is resilient by construction: braces inside strings and
//! comments are already hidden by the lexer, and an unbalanced file
//! degrades to shorter extents rather than a crash.

use crate::lexer::{Token, TokenKind};

/// One function item (free fn, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`"flush_out"`, `"stage"`).
    pub name: String,
    /// Context-qualified name (`"DocStore::stage"`), for messages.
    pub qualname: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token indices of the body's `{` and `}` (`None` for trait-method
    /// declarations that end in `;`).
    pub body: Option<(usize, usize)>,
}

/// Extracts every function in the file, in source order, with its
/// impl/mod context. Nested functions are reported as their own items;
/// callers that walk a body should mask nested extents (see
/// [`nested_extents`]).
pub fn functions(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    // (context name, token index of the context's closing `}`)
    let mut ctx: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while ctx.last().is_some_and(|&(_, close)| i > close) {
            ctx.pop();
        }
        let t = &tokens[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("mod") || t.is_ident("trait") {
            if let Some((name, open)) = scan_context_header(tokens, i) {
                if let Some(close) = matching(tokens, open, '{', '}') {
                    ctx.push((name, close));
                }
                i += 1;
                continue;
            }
        }
        if t.is_ident("fn") {
            if let Some(item) = scan_fn(tokens, i, &ctx) {
                i += 1; // keep scanning inside the body: nested fns count too
                out.push(item);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// For a function item, the body extents of every other function nested
/// strictly inside it — tokens a facts pass over the outer fn must skip.
pub fn nested_extents(item: &FnItem, all: &[FnItem]) -> Vec<(usize, usize)> {
    let Some((open, close)) = item.body else { return Vec::new() };
    all.iter()
        .filter_map(|f| f.body.map(|b| (f.sig_start, b.1)))
        .filter(|&(start, end)| start > open && end < close)
        .collect()
}

/// Finds the token index of the delimiter matching `tokens[open]`
/// (which must be `open_c`), honoring nesting. `None` if unbalanced.
pub fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    debug_assert!(tokens[open].is_punct(open_c));
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Scans an `impl`/`mod`/`trait` header starting at its keyword. Returns
/// the context name and the index of the body's `{`, or `None` when the
/// item has no body (`mod foo;`) or the keyword is in type position.
fn scan_context_header(tokens: &[Token], kw: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut j = kw + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        if t.is_punct('{') && angle <= 0 {
            return name.map(|n| (n, j));
        }
        if t.is_punct(';') || t.is_punct('}') || t.is_punct('(') {
            return None; // `mod foo;`, or not really an item header
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.kind == TokenKind::Ident && angle <= 0 {
            match t.text.as_str() {
                // `impl Display for Opcode` — the implementing type names
                // the context, so restart collection after `for`.
                "for" => name = None,
                "where" | "dyn" | "mut" | "ref" | "const" | "unsafe" | "pub" => {}
                _ => {
                    if name.is_none() {
                        name = Some(t.text.clone());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Scans a `fn` item starting at the keyword. Returns `None` when `fn`
/// is in type position (`as fn(u8)`) rather than an item.
fn scan_fn(tokens: &[Token], kw: usize, ctx: &[(String, usize)]) -> Option<FnItem> {
    // The name is the next code token; `fn(` is a function-pointer type.
    let mut j = kw + 1;
    while j < tokens.len() && tokens[j].is_comment() {
        j += 1;
    }
    let name_tok = tokens.get(j)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Find the body `{` (or terminating `;`) at zero delimiter depth.
    let (mut paren, mut bracket) = (0i32, 0i32);
    let mut k = j + 1;
    let body = loop {
        let t = tokens.get(k)?;
        if !t.is_comment() {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if paren == 0 && bracket == 0 {
                if t.is_punct('{') {
                    break Some((k, matching(tokens, k, '{', '}')?));
                }
                if t.is_punct(';') {
                    break None;
                }
            }
        }
        k += 1;
    };
    let qual: Vec<&str> = ctx.iter().map(|(n, _)| n.as_str()).chain([name_tok.text.as_str()]).collect();
    Some(FnItem {
        qualname: qual.join("::"),
        name,
        line: tokens[kw].line,
        sig_start: kw,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str) -> Vec<(String, String)> {
        functions(&lex(src)).into_iter().map(|f| (f.name, f.qualname)).collect()
    }

    #[test]
    fn free_fns_and_methods() {
        let got = names("fn a() {}\nimpl Server { fn b(&self) {} }\nfn c() {}");
        assert_eq!(
            got,
            vec![
                ("a".into(), "a".into()),
                ("b".into(), "Server::b".into()),
                ("c".into(), "c".into()),
            ]
        );
    }

    #[test]
    fn nested_impls_and_mods() {
        let src = "mod outer {\n  impl<T: Ord> Codec<T> {\n    fn enc(&self) {}\n  }\n  \
                   impl Display for Opcode {\n    fn fmt(&self) {}\n  }\n}\nfn after() {}";
        let got = names(src);
        assert_eq!(
            got,
            vec![
                ("enc".into(), "outer::Codec::enc".into()),
                ("fmt".into(), "outer::Opcode::fmt".into()),
                ("after".into(), "after".into()),
            ]
        );
    }

    #[test]
    fn cfg_test_mod_fns_are_still_items() {
        // The structural pass reports them; rule layers consult
        // `SourceFile::in_test_code` to exempt them.
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { lib(); }\n}";
        let got = names(src);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].1, "tests::t");
    }

    #[test]
    fn nested_fn_bodies_are_separate_items() {
        let src = "fn outer() {\n  fn inner() { x.lock(); }\n  other();\n}";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 2);
        let outer = &fns[0];
        let masks = nested_extents(outer, &fns);
        assert_eq!(masks.len(), 1);
        assert!(masks[0].0 > outer.body.unwrap().0);
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let src = "fn f() { spawn(move || { g(); }); }";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert!(nested_extents(&fns[0], &fns).is_empty());
    }

    #[test]
    fn raw_strings_with_braces_do_not_confuse_matching() {
        let src = "fn f() { let s = r#\"{ not a brace }\"#; }\nfn g() {}";
        let got = names(src);
        assert_eq!(got, vec![("f".into(), "f".into()), ("g".into(), "g".into())]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let fns = functions(&lex("trait T { fn decl(&self); fn def(&self) {} }"));
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
        assert_eq!(fns[0].qualname, "T::decl");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let got = names("fn real(cb: fn(u8) -> u8) {}\n");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn where_clauses_and_generics_in_signatures() {
        let src = "fn f<T>(x: T) -> Vec<u8> where T: Into<Vec<u8>> { body() }";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert!(fns[0].body.is_some());
    }
}
