//! Gate tests: the lint holds the line on the *real* workspace.
//!
//! These load actual source files from the repository, mutate them in
//! memory, and assert the gate catches the regression — the acceptance
//! criteria for the lint as a CI gate.

use std::path::PathBuf;

use mmlib_lint::{report, Budget, Pairs, Workspace};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap()
}

/// The committed tree passes its own gate with the committed budget and
/// the committed G1 pair manifest.
#[test]
fn real_workspace_is_clean_under_the_committed_budget() {
    let root = root();
    let ws = Workspace::load(&root).unwrap();
    let budget = Budget::load(&root.join("lint-budget.txt")).unwrap();
    let pairs = Pairs::load(&root.join("lint-pairs.txt")).unwrap();
    let r = ws.check_full(&budget, &pairs);
    assert!(r.clean(), "workspace lint violations:\n{}", report::render_text(&r));
    assert!(r.files_scanned > 50, "workspace scan looks truncated: {}", r.files_scanned);
}

/// Acceptance check: deleting a server dispatch arm (here: retargeting
/// `DocRemove`'s arm so the opcode no longer dispatches) fails the gate.
#[test]
fn deleting_a_server_dispatch_arm_fails_x1() {
    let handlers = read("crates/net/src/server/handlers.rs");
    assert!(handlers.contains("Opcode::DocRemove =>"), "dispatch arm moved; update this test");
    let files = vec![
        ("crates/net/src/protocol.rs".to_string(), read("crates/net/src/protocol.rs")),
        (
            "crates/net/src/server/handlers.rs".to_string(),
            handlers.replace("Opcode::DocRemove =>", "Opcode::DocGet =>"),
        ),
        ("crates/net/src/client.rs".to_string(), read("crates/net/src/client.rs")),
        (
            "crates/net/tests/opcode_coverage.rs".to_string(),
            read("crates/net/tests/opcode_coverage.rs"),
        ),
    ];
    let r = Workspace::from_memory(files).check(&Budget::zero());
    assert!(
        r.violations
            .iter()
            .any(|v| v.rule == "X1" && v.message.contains("`DocRemove` has no dispatch arm")),
        "{}",
        report::render_text(&r)
    );
}

/// Acceptance check (issue seeded mutation): moving the post-dispatch
/// `flush_out` call inside the out-guard block in `service_conn` makes the
/// server call a function that re-acquires the lock it is holding — L1
/// must catch the reordering. The unmutated file is L1-clean.
#[test]
fn holding_the_out_guard_across_flush_out_fails_l1() {
    let server = read("crates/net/src/server/io.rs");
    let anchor = "    active |= flush_out(state, conn)?;\n\n    {\n        let out = conn.shared.out.lock();";
    assert!(server.contains(anchor), "service_conn flush/guard sequence moved; update this test");

    let l1_of = |text: String| {
        let ws = Workspace::from_memory(vec![("crates/net/src/server/io.rs".to_string(), text)]);
        let r = ws.check(&Budget::zero());
        r.violations.iter().filter(|v| v.rule == "L1").count()
    };

    assert_eq!(l1_of(server.clone()), 0, "unmutated server/io.rs must be L1-clean");

    let mutated = server.replace(
        anchor,
        "    {\n        let out = conn.shared.out.lock();\n        active |= flush_out(state, conn)?;",
    );
    assert!(
        l1_of(mutated) > 0,
        "reordering flush_out under the out guard must fail L1 (call-edge double-acquisition)"
    );
}

/// Acceptance check (issue seeded mutation): deleting the
/// `release_pending` call from the dead-connection reap path re-opens the
/// PR-9 admission-budget leak — the `swap_remove`/`release_pending`
/// scope=block pair in lint-pairs.txt must catch it.
#[test]
fn removing_release_pending_from_the_reap_path_fails_g1() {
    let root = root();
    let server = read("crates/net/src/server/io.rs");
    let anchor = "let dead = conns.swap_remove(i);\n                    release_pending(state, &dead);";
    assert!(server.contains(anchor), "reap path moved; update this test");

    let pairs = Pairs::load(&root.join("lint-pairs.txt")).unwrap();
    let g1_of = |text: String| {
        let ws = Workspace::from_memory(vec![("crates/net/src/server/io.rs".to_string(), text)]);
        let r = ws.check_full(&Budget::zero(), &pairs);
        r.violations
            .iter()
            .filter(|v| v.rule == "G1")
            .map(|v| v.message.clone())
            .collect::<Vec<_>>()
    };

    assert!(g1_of(server.clone()).is_empty(), "unmutated server/io.rs must be G1-clean");

    let mutated = server.replace(anchor, "let dead = conns.swap_remove(i);");
    let findings = g1_of(mutated);
    assert!(
        findings.iter().any(|m| m.contains("`swap_remove`")
            && m.contains("without `release_pending` in the same block")),
        "removing release_pending must fail G1: {findings:#?}"
    );
}

/// A pragma suppresses its violation but counts against the ratchet; the
/// zero budget rejects it, a budget of one admits it.
#[test]
fn ratchet_admits_exactly_the_budgeted_pragmas() {
    let file = "pub fn f(out: &Mutex<TcpStream>, b: &[u8]) {\n    \
                let mut s = out.lock();\n    \
                // mmlib-lint: allow(H1, fixture: whole-frame writes are serialized by this lock)\n    \
                let _ = s.write_all(b);\n\
                }\n";
    let ws = Workspace::from_memory(vec![("crates/net/src/x.rs".to_string(), file.to_string())]);

    let over = ws.check(&Budget::zero());
    assert!(
        over.violations
            .iter()
            .any(|v| v.rule == "LINT" && v.message.contains("ratchet exceeded for H1")),
        "{}",
        report::render_text(&over)
    );

    let within = ws.check(&Budget::parse("H1 1\n", "test-budget").unwrap());
    assert!(within.clean(), "{}", report::render_text(&within));
    assert_eq!(within.allowed.len(), 1);
    assert_eq!(within.allow_counts.get("H1"), Some(&1));
}

/// Stale pragmas (suppressing nothing) and malformed pragmas are
/// themselves violations — the annotation layer cannot rot silently.
#[test]
fn stale_and_malformed_pragmas_are_violations() {
    let file = "// mmlib-lint: allow(H1, nothing on the next line does I/O)\n\
                pub fn ok() {}\n\
                // mmlib-lint: allow(H1)\n";
    let ws = Workspace::from_memory(vec![("crates/net/src/x.rs".to_string(), file.to_string())]);
    let r = ws.check(&Budget::parse("H1 5\n", "test-budget").unwrap());
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("stale pragma")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("malformed mmlib-lint pragma")), "{msgs:#?}");
}

#[test]
fn budget_parser_rejects_garbage_and_reads_comments() {
    assert!(Budget::parse("H1", "t").is_err());
    assert!(Budget::parse("H1 x", "t").is_err());
    assert!(Budget::parse("H1 1 extra", "t").is_err());
    let b = Budget::parse("# header\nH1 2 # trailing comment\n\nL1 0\n", "t").unwrap();
    assert_eq!(b.limit("H1"), 2);
    assert_eq!(b.limit("L1"), 0);
    assert_eq!(b.limit("G1"), 0, "unlisted rules default to zero");
}
