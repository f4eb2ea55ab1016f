//! Per-crate concurrency model: declared locks, per-function facts
//! (acquisitions, calls, I/O sites — each with the set of locks held at
//! that point), and fixpoint summaries propagated over intra-crate call
//! edges.
//!
//! ## Guard-scope model
//!
//! An *acquisition* is `.lock()` / `.read()` / `.write()` **with empty
//! parentheses** whose receiver chain ends in a field or binding declared
//! somewhere in the crate with a `Mutex`/`RwLock` type ascription
//! (`out: Mutex<OutQueue>`, `intake: Arc<Mutex<Vec<TcpStream>>>`).
//! `.read(buf)` / `.write(buf)` with arguments are I/O, never locks.
//!
//! The guard's live range is approximated per-function:
//!
//! * **Bound guard** — `let [mut] NAME = <chain>.lock()[.unwrap-ish()];`
//!   lives to the end of the enclosing block, or to an explicit
//!   `drop(NAME)`. Binding to `_` drops immediately (transient).
//! * **Transient guard** — any other acquisition lives to the end of its
//!   statement: the next `;` at the same brace depth, or through one
//!   attached `{...}` block (`match x.lock() { ... }`,
//!   `for v in x.lock().drain(..) { ... }`, `if let P = &*x.lock() { ... }`
//!   all hold the temporary for the whole block).
//!
//! Known blind spot, by design: a function that *returns* a guard
//! (`fn write_map(&self) -> RwLockWriteGuard<...>`) ends the analyzed
//! scope at its own `}`; the caller's held-set does not include it.
//!
//! ## Call edges
//!
//! Calls are keyed by bare function name, and only calls the analysis can
//! plausibly resolve inside the crate are recorded: free calls
//! (`flush_out(...)`, `atomic::stage_write(...)`) and `self.method(...)`.
//! Method calls on other receivers (`conn.writer.lock().shutdown(..)`)
//! are skipped — resolving them by bare name across unrelated types would
//! fabricate edges.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::structure::{self, FnItem};

/// Method names that are I/O regardless of arguments.
const IO_METHODS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "sync_all",
    "sync_data",
    "fsync",
];

/// Guard adapters that may sit between the acquisition and the binding
/// (`.lock().unwrap_or_else(|e| e.into_inner())`).
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Keywords that look like `ident(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "return", "loop", "in", "else", "move", "as", "await"];

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acq {
    pub lock: String,
    pub line: usize,
    pub col: usize,
    /// Locks already held when this one is taken.
    pub held: Vec<String>,
}

/// One call site: a free call or a `self.` method call.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub line: usize,
    pub col: usize,
    /// The path segment before the call (`Sha256` in `Sha256::new()`,
    /// `atomic` in `atomic::stage_write(...)`), when there is one.
    pub qualifier: Option<String>,
    pub held: Vec<String>,
}

/// One direct I/O site.
#[derive(Debug, Clone)]
pub struct IoSite {
    /// What the site does (`"write"`, `"fs::read_dir"`), for messages.
    pub what: String,
    pub line: usize,
    pub col: usize,
    pub held: Vec<String>,
}

/// Facts for one function body.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub name: String,
    pub qualname: String,
    /// Index into the file list the model was built from.
    pub file: usize,
    pub acquires: Vec<Acq>,
    pub calls: Vec<CallSite>,
    pub io: Vec<IoSite>,
}

/// The concurrency model for one crate's library code.
pub struct CrateModel {
    pub krate: String,
    pub fns: Vec<FnFacts>,
    /// Lock names declared anywhere in the crate.
    pub locks: BTreeSet<String>,
    /// Transitive lock set per bare function name (fixpoint over
    /// resolvable call edges).
    pub trans_acquires: BTreeMap<String, BTreeSet<String>>,
    /// Whether a bare function name transitively performs I/O.
    pub trans_io: BTreeMap<String, bool>,
}

/// Builds the model for one crate from its library files. `files` pairs
/// each `SourceFile` with its index in the engine's file list.
pub fn build(krate: &str, files: &[(usize, &SourceFile)]) -> CrateModel {
    let mut locks = BTreeSet::new();
    for (_, f) in files {
        collect_lock_names(f, &mut locks);
    }
    let mut fns = Vec::new();
    for (fi, (_, f)) in files.iter().enumerate() {
        let items = structure::functions(&f.tokens);
        for item in &items {
            if f.in_test_code(item.line) {
                continue;
            }
            fns.push(extract_facts(f, fi, item, &items, &locks));
        }
    }
    let (trans_acquires, trans_io) = fixpoint(&fns);
    CrateModel {
        krate: krate.to_string(),
        fns,
        locks,
        trans_acquires,
        trans_io,
    }
}

/// Scans for `name :` followed shortly by `Mutex`/`RwLock` — struct
/// fields, statics, and typed parameters all declare a lock name.
fn collect_lock_names(file: &SourceFile, out: &mut BTreeSet<String>) {
    let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    for w in 0..code.len().saturating_sub(2) {
        if code[w].kind != TokenKind::Ident || !code[w + 1].is_punct(':') {
            continue;
        }
        // `::` is a path, not a type ascription.
        if code.get(w + 2).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        for t in code.iter().skip(w + 2).take(8) {
            if ['(', ')', '{', '}', ',', ';', '='].iter().any(|&c| t.is_punct(c)) {
                break;
            }
            if t.is_ident("Mutex") || t.is_ident("RwLock") {
                out.insert(code[w].text.clone());
                break;
            }
        }
    }
}

/// A live guard during the facts scan.
struct Guard {
    lock: String,
    /// Token index at which the guard dies (inclusive of that token).
    end: usize,
    /// Binding name, for `drop(name)`.
    name: Option<String>,
}

fn held_of(guards: &[Guard]) -> Vec<String> {
    let mut held: Vec<String> = Vec::new();
    for g in guards {
        if !held.contains(&g.lock) {
            held.push(g.lock.clone());
        }
    }
    held
}

/// One left-to-right pass over a function body, tracking live guards.
fn extract_facts(
    file: &SourceFile,
    file_idx: usize,
    item: &FnItem,
    all_items: &[FnItem],
    locks: &BTreeSet<String>,
) -> FnFacts {
    let mut facts = FnFacts {
        name: item.name.clone(),
        qualname: item.qualname.clone(),
        file: file_idx,
        acquires: Vec::new(),
        calls: Vec::new(),
        io: Vec::new(),
    };
    let Some((open, close)) = item.body else { return facts };
    let toks = &file.tokens;
    let nested = structure::nested_extents(item, all_items);

    let mut guards: Vec<Guard> = Vec::new();
    // Open-brace stack (indices), for "end of enclosing block".
    let mut blocks: Vec<usize> = vec![open];
    // First token of the current statement, for `let` binding detection.
    let mut stmt_start = open + 1;

    let mut i = open + 1;
    while i < close {
        if let Some(&(_, nend)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = nend + 1;
            stmt_start = i;
            continue;
        }
        let t = &toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        guards.retain(|g| g.end >= i);
        if t.is_punct('{') {
            blocks.push(i);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            blocks.pop();
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident {
            // `drop(name)` releases a bound guard early.
            if t.text == "drop"
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(victim) = toks.get(i + 2) {
                    guards.retain(|g| g.name.as_deref() != Some(victim.text.as_str()));
                }
            }
            if let Some(adv) =
                try_acquisition(toks, i, close, stmt_start, &blocks, locks, &mut guards, &mut facts)
            {
                i = adv;
                continue;
            }
            if let Some(what) = io_site_at(toks, i) {
                facts.io.push(IoSite {
                    what,
                    line: t.line,
                    col: t.col,
                    held: held_of(&guards),
                });
                i += 1;
                continue;
            }
            if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            {
                if let Some(qualifier) = resolvable_call(toks, i) {
                    facts.calls.push(CallSite {
                        name: t.text.clone(),
                        line: t.line,
                        col: t.col,
                        qualifier,
                        held: held_of(&guards),
                    });
                }
            }
        }
        i += 1;
    }
    facts
}

/// If `toks[i]` is a lock acquisition, records it, installs its guard,
/// and returns the index to resume scanning at.
#[allow(clippy::too_many_arguments)]
fn try_acquisition(
    toks: &[Token],
    i: usize,
    body_close: usize,
    stmt_start: usize,
    blocks: &[usize],
    locks: &BTreeSet<String>,
    guards: &mut Vec<Guard>,
    facts: &mut FnFacts,
) -> Option<usize> {
    let t = &toks[i];
    if !matches!(t.text.as_str(), "lock" | "read" | "write") {
        return None;
    }
    if !prev_code(toks, i).is_some_and(|p| toks[p].is_punct('.')) {
        return None;
    }
    // Empty parens: `.lock()` — `.read(buf)` is I/O, not an acquisition.
    if !(toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(')')))
    {
        return None;
    }
    let recv = receiver_name(toks, i)?;
    if !locks.contains(&recv) {
        return None;
    }

    let acq = Acq { lock: recv.clone(), line: t.line, col: t.col, held: held_of(guards) };
    facts.acquires.push(acq);

    // Skip one unwrap-ish adapter to find the end of the guard expression.
    let mut chain_end = i + 2;
    if toks.get(chain_end + 1).is_some_and(|n| n.is_punct('.'))
        && toks.get(chain_end + 2).is_some_and(|n| {
            n.kind == TokenKind::Ident && GUARD_ADAPTERS.contains(&n.text.as_str())
        })
        && toks.get(chain_end + 3).is_some_and(|n| n.is_punct('('))
    {
        chain_end = structure::matching(toks, chain_end + 3, '(', ')')?;
    }

    // Bound guard: `let [mut] NAME = <chain>;` scoped to the block end.
    if let Some(name) = binding_name(toks, stmt_start, i) {
        if toks.get(chain_end + 1).is_some_and(|n| n.is_punct(';')) && name != "_" {
            let block_open = *blocks.last()?;
            let end = structure::matching(toks, block_open, '{', '}').unwrap_or(body_close);
            guards.push(Guard { lock: recv, end, name: Some(name) });
            // Resume at the `;` so the caller resets the statement start.
            return Some(chain_end + 1);
        }
    }

    // Transient: to the statement's `;`, or through one attached block.
    let mut j = chain_end + 1;
    let end = loop {
        let Some(n) = toks.get(j) else { break body_close };
        if j >= body_close {
            break body_close;
        }
        if n.is_punct('(') {
            j = structure::matching(toks, j, '(', ')').unwrap_or(body_close);
        } else if n.is_punct('[') {
            j = structure::matching(toks, j, '[', ']').unwrap_or(body_close);
        } else if n.is_punct('{') {
            // Attached block (`match`/`for`/`if let` holding the
            // temporary): the guard lives through it.
            break structure::matching(toks, j, '{', '}').unwrap_or(body_close);
        } else if n.is_punct('}') {
            // Tail expression: the temporary dies at the block close.
            break j;
        } else if n.is_punct(';') {
            break j;
        }
        j += 1;
    };
    guards.push(Guard { lock: recv, end, name: None });
    Some(i + 1)
}

/// The previous non-comment token index.
fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !toks[j].is_comment())
}

/// Walks back over the receiver chain of `.method` at `i` to the nearest
/// plain identifier: `self.shards[i].lock()` → `shards`.
fn receiver_name(toks: &[Token], i: usize) -> Option<String> {
    let dot = prev_code(toks, i)?;
    let mut j = prev_code(toks, dot)?;
    loop {
        let t = &toks[j];
        if t.is_punct(']') {
            j = matching_back(toks, j, '[', ']')?;
            j = prev_code(toks, j)?;
        } else if t.is_punct(')') {
            j = matching_back(toks, j, '(', ')')?;
            j = prev_code(toks, j)?;
        } else if t.kind == TokenKind::Ident {
            return Some(t.text.clone());
        } else if t.is_punct('*') || t.is_punct('&') {
            j = prev_code(toks, j)?;
        } else {
            return None;
        }
    }
}

/// Finds the opening delimiter matching the closer at `close`.
fn matching_back(toks: &[Token], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        if toks[j].is_punct(close_c) {
            depth += 1;
        } else if toks[j].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `let [mut] NAME =` at the statement start, with `=` before `i`.
fn binding_name(toks: &[Token], stmt_start: usize, i: usize) -> Option<String> {
    let mut j = stmt_start;
    while j < i && toks[j].is_comment() {
        j += 1;
    }
    if !toks.get(j)?.is_ident("let") {
        return None;
    }
    j += 1;
    if toks.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = toks.get(j)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    if !toks.get(j + 1)?.is_punct('=') || j + 1 >= i {
        return None;
    }
    Some(name.text.clone())
}

/// For a call at `i` (an ident followed by `(`): `None` when it is a
/// method call on a receiver other than `self`, which is never resolved;
/// otherwise the path qualifier of a `Path::name(...)` call, if any.
fn resolvable_call(toks: &[Token], i: usize) -> Option<Option<String>> {
    let Some(p) = prev_code(toks, i) else { return Some(None) };
    if toks[p].is_punct('.') {
        let r = prev_code(toks, p)?;
        let self_recv = toks[r].is_ident("self")
            && prev_code(toks, r).is_none_or(|q| !toks[q].is_punct('.'));
        return self_recv.then_some(None);
    }
    if toks[p].is_punct(':') {
        if let Some(p2) = prev_code(toks, p) {
            if toks[p2].is_punct(':') {
                if let Some(p3) = prev_code(toks, p2) {
                    if toks[p3].kind == TokenKind::Ident {
                        return Some(Some(toks[p3].text.clone()));
                    }
                }
            }
        }
    }
    Some(None)
}

/// Whether a call site plausibly resolves to a same-crate function, given
/// the crate's function list. Bare calls and `self.`/module-path calls
/// resolve by bare name; a `Type::name(...)` path call resolves only when
/// the crate has a `name` whose impl context is `Type` — `Sha256::new()`
/// must not inherit the summary of every `fn new` in the crate.
pub fn call_resolves(fns: &[FnFacts], c: &CallSite) -> bool {
    match &c.qualifier {
        Some(q) if q != "Self" && q.chars().next().is_some_and(|ch| ch.is_uppercase()) => {
            fns.iter().any(|f| {
                let segs: Vec<&str> = f.qualname.split("::").collect();
                f.name == c.name
                    && segs.len() >= 2
                    && segs[segs.len() - 2] == q.as_str()
            })
        }
        _ => true,
    }
}

/// Detects a direct I/O site at ident `i`; returns a description.
fn io_site_at(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    let after_dot = prev_code(toks, i).is_some_and(|p| toks[p].is_punct('.'));
    let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    if after_dot && called && IO_METHODS.contains(&t.text.as_str()) {
        return Some(t.text.clone());
    }
    // `.read(buf)` / `.write(buf)` with at least one argument.
    if after_dot
        && called
        && matches!(t.text.as_str(), "read" | "write")
        && !toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
    {
        return Some(t.text.clone());
    }
    // `fs::anything(...)` — filesystem path calls (read_dir, rename, ...).
    if called && t.kind == TokenKind::Ident {
        let p1 = prev_code(toks, i);
        if let Some(p1) = p1 {
            if toks[p1].is_punct(':') {
                if let Some(p2) = prev_code(toks, p1) {
                    if toks[p2].is_punct(':') {
                        if let Some(p3) = prev_code(toks, p2) {
                            if toks[p3].is_ident("fs") {
                                return Some(format!("fs::{}", t.text));
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Fixpoint over resolvable call edges: transitive lock sets and I/O
/// reachability per bare function name.
fn fixpoint(fns: &[FnFacts]) -> (BTreeMap<String, BTreeSet<String>>, BTreeMap<String, bool>) {
    let mut acq: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut io: BTreeMap<String, bool> = BTreeMap::new();
    for f in fns {
        let entry = acq.entry(f.name.clone()).or_default();
        entry.extend(f.acquires.iter().map(|a| a.lock.clone()));
        *io.entry(f.name.clone()).or_default() |= !f.io.is_empty();
    }
    // Bounded iteration: the lattice height is |locks| x |fns|.
    for _ in 0..fns.len() + 1 {
        let mut changed = false;
        for f in fns {
            for c in &f.calls {
                if c.name == f.name || !call_resolves(fns, c) {
                    continue;
                }
                let (callee_acq, callee_io) = match (acq.get(&c.name), io.get(&c.name)) {
                    (Some(a), Some(i)) => (a.clone(), *i),
                    _ => continue, // not a crate function
                };
                let ea = acq.entry(f.name.clone()).or_default();
                let before = ea.len();
                ea.extend(callee_acq);
                changed |= ea.len() != before;
                let ei = io.entry(f.name.clone()).or_default();
                if callee_io && !*ei {
                    *ei = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (acq, io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> CrateModel {
        let f = SourceFile::new("crates/net/src/lib.rs", src);
        build("net", &[(0, &f)])
    }

    const DECLS: &str = "struct S { a: Mutex<u32>, b: RwLock<u32> }\n";

    #[test]
    fn lock_names_from_fields_and_params() {
        let m = model("struct S { out: Mutex<Q> }\nfn f(intake: &Arc<Mutex<Vec<u8>>>) {}\n");
        assert!(m.locks.contains("out"));
        assert!(m.locks.contains("intake"));
    }

    #[test]
    fn bound_guard_lives_to_block_end() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self) {{ let g = self.a.lock(); self.touch(); }} }}"
        );
        let m = model(&src);
        let f = m.fns.iter().find(|f| f.name == "f").unwrap();
        let call = f.calls.iter().find(|c| c.name == "touch").unwrap();
        assert_eq!(call.held, vec!["a".to_string()]);
    }

    #[test]
    fn transient_guard_ends_at_semicolon() {
        let src = format!("{DECLS}impl S {{ fn f(&self) {{ self.a.lock().push(1); after(); }} }}");
        let m = model(&src);
        let f = &m.fns[0];
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.held.is_empty());
    }

    #[test]
    fn transient_guard_spans_attached_block() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self) {{ for v in self.a.lock().drain(..) {{ body(v); }} done(); }} }}"
        );
        let m = model(&src);
        let f = &m.fns[0];
        assert_eq!(f.calls.iter().find(|c| c.name == "body").unwrap().held, vec!["a"]);
        assert!(f.calls.iter().find(|c| c.name == "done").unwrap().held.is_empty());
    }

    #[test]
    fn drop_releases_bound_guard() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self) {{ let g = self.a.lock(); drop(g); after(); }} }}"
        );
        let m = model(&src);
        let f = &m.fns[0];
        assert!(f.calls.iter().find(|c| c.name == "after").unwrap().held.is_empty());
    }

    #[test]
    fn underscore_binding_is_transient() {
        let src = format!("{DECLS}impl S {{ fn f(&self) {{ let _ = self.a.lock(); after(); }} }}");
        let m = model(&src);
        assert!(m.fns[0].calls.iter().find(|c| c.name == "after").unwrap().held.is_empty());
    }

    #[test]
    fn poison_adapter_still_binds() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self) {{ \
             let g = self.a.lock().unwrap_or_else(|e| e.into_inner()); after(); }} }}"
        );
        let m = model(&src);
        assert_eq!(m.fns[0].calls.iter().find(|c| c.name == "after").unwrap().held, vec!["a"]);
    }

    #[test]
    fn read_with_args_is_io_not_acquisition() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self, s: &mut TcpStream) {{ \
             let g = self.a.lock(); s.read(&mut buf); }} }}"
        );
        let m = model(&src);
        let f = &m.fns[0];
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.io.len(), 1);
        assert_eq!(f.io[0].held, vec!["a"]);
    }

    #[test]
    fn empty_read_on_rwlock_is_acquisition() {
        let src = format!("{DECLS}impl S {{ fn f(&self) {{ let g = self.b.read(); }} }}");
        let m = model(&src);
        assert_eq!(m.fns[0].acquires.len(), 1);
        assert_eq!(m.fns[0].acquires[0].lock, "b");
        assert!(m.fns[0].io.is_empty());
    }

    #[test]
    fn fs_path_calls_are_io() {
        let src = "fn f() { let _e = std::fs::read_dir(\"x\"); }\n";
        let m = model(src);
        assert_eq!(m.fns[0].io.len(), 1);
        assert_eq!(m.fns[0].io[0].what, "fs::read_dir");
    }

    #[test]
    fn transitive_summaries_propagate() {
        let src = format!(
            "{DECLS}impl S {{\n\
             fn leaf(&self, s: &mut T) {{ let g = self.a.lock(); s.write_all(b\"x\"); }}\n\
             fn mid(&self) {{ self.leaf(s); }}\n\
             }}\n\
             fn top(s: &S) {{ s2(); }}\n\
             fn s2() {{ }}\n"
        );
        let m = model(&src);
        assert!(m.trans_acquires["leaf"].contains("a"));
        assert!(m.trans_acquires["mid"].contains("a"));
        assert!(m.trans_io["mid"]);
        assert!(!m.trans_io["s2"]);
    }

    #[test]
    fn other_receiver_calls_do_not_propagate() {
        let src = format!(
            "{DECLS}impl S {{ fn shutdown(&self, s: &mut T) {{ s.write_all(b\"x\"); }} }}\n\
             fn f(conn: &C) {{ conn.shutdown(2); }}\n"
        );
        let m = model(&src);
        assert!(!m.trans_io["f"]);
        assert!(m.fns.iter().all(|f| f.calls.iter().all(|c| c.name != "shutdown")));
    }

    #[test]
    fn held_set_at_nested_acquisition() {
        let src = format!(
            "{DECLS}impl S {{ fn f(&self) {{ let g = self.a.lock(); let h = self.b.read(); }} }}"
        );
        let m = model(&src);
        let acqs = &m.fns[0].acquires;
        assert_eq!(acqs.len(), 2);
        assert!(acqs[0].held.is_empty());
        assert_eq!(acqs[1].held, vec!["a"]);
    }

    #[test]
    fn type_qualified_calls_resolve_by_impl_context() {
        // `Sha256::new()` must not inherit the summary of an unrelated
        // `fn new` in the crate that happens to do I/O.
        let src = "struct Wal;\nimpl Wal {\n  fn new(p: &Path) -> Wal {\n    \
                   let f = std::fs::create_dir_all(p); Wal\n  }\n}\n\
                   fn hash_layers() { let h = Sha256::new(); }\n\
                   fn open_wal() { let w = Wal::new(p); }\n";
        let m = model(src);
        assert!(!m.trans_io["hash_layers"], "Sha256::new must not resolve to Wal::new");
        assert!(m.trans_io["open_wal"]);
    }

    #[test]
    fn test_code_fns_are_excluded() {
        let src = "struct S { a: Mutex<u32> }\n#[cfg(test)]\nmod tests {\n  fn t() { s.a.lock(); }\n}\n";
        let m = model(src);
        assert!(m.fns.is_empty());
    }
}
