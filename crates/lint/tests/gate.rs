//! Gate tests: the lint holds the line on the *real* workspace.
//!
//! These load actual source files from the repository, mutate them in
//! memory, and assert the gate catches the regression. Two of the
//! mutations — a reversed lock order and a lock held across an I/O pass —
//! get past every test suite, which is why L1 and H1 exist at all.

use std::path::PathBuf;

use mmlib_lint::{report, Budget, Workspace};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap()
}

/// The committed tree passes its own gate with the committed budget.
#[test]
fn real_workspace_is_clean_under_the_committed_budget() {
    let root = root();
    let ws = Workspace::load(&root).unwrap();
    let budget = Budget::load(&root.join("lint-budget.txt")).unwrap();
    let r = ws.check(&budget);
    assert!(r.clean(), "workspace lint violations:\n{}", report::render_text(&r));
    assert!(r.files_scanned > 50, "workspace scan looks truncated: {}", r.files_scanned);
}

/// Findings of `rule` when `path` alone is checked with `text` as its
/// content.
fn findings(rule: &str, path: &str, text: String) -> Vec<String> {
    let ws = Workspace::from_memory(vec![(path.to_string(), text)]);
    let r = ws.check(&Budget::zero());
    r.violations.into_iter().filter(|v| v.rule == rule).map(|v| v.message).collect()
}

/// Seeded mutation: moving the post-dispatch `flush_out` call inside the
/// out-guard block in `service_conn` makes the server call a function that
/// re-acquires the lock it is holding. This text is also a borrow error,
/// and a compiling variant deadlocks the loopback suites; L1 names it
/// before either runs.
#[test]
fn holding_the_out_guard_across_flush_out_fails_l1() {
    let path = "crates/net/src/server/io.rs";
    let server = read(path);
    let anchor = "    active |= flush_out(state, conn)?;\n\n    {\n        let out = conn.shared.out.lock();";
    assert!(server.contains(anchor), "service_conn flush/guard sequence moved; update this test");
    assert!(findings("L1", path, server.clone()).is_empty(), "unmutated server/io.rs must be L1-clean");

    let mutated = server.replace(
        anchor,
        "    {\n        let out = conn.shared.out.lock();\n        active |= flush_out(state, conn)?;",
    );
    assert!(
        !findings("L1", path, mutated).is_empty(),
        "reordering flush_out under the out guard must fail L1 (call-edge double-acquisition)"
    );
}

/// Seeded mutation that every test suite passes: clearing the pool slot
/// while still holding the connection's writer takes `writer -> slot`,
/// the reverse of `Drop for RemoteStore`'s `slot -> writer`. No caller can
/// interleave the two today (drop has the store to itself), so only L1
/// sees the inversion before a new caller makes it a deadlock.
#[test]
fn clearing_the_slot_under_the_writer_fails_l1() {
    let path = "crates/net/src/client.rs";
    let client = read(path);
    let anchor = "            let _ = conn.writer.lock().shutdown(Shutdown::Both);\n            return Err(e);";
    assert!(client.contains(anchor), "write-failure branch moved; update this test");
    assert!(findings("L1", path, client.clone()).is_empty(), "unmutated client.rs must be L1-clean");

    let mutated = client.replace(
        anchor,
        "            let writer = conn.writer.lock();\n            *slot.lock() = None;\n            \
         let _ = writer.shutdown(Shutdown::Both);\n            return Err(e);",
    );
    let l1 = findings("L1", path, mutated);
    assert!(l1.iter().any(|m| m.contains("slot -> writer -> slot")), "{l1:#?}");
}

/// Seeded mutation that every test suite passes: an I/O thread holding
/// its `intake` lock across the whole service pass stalls the accept loop
/// behind socket I/O but breaks no exchange — only H1 sees it.
#[test]
fn holding_intake_across_the_service_pass_fails_h1() {
    let path = "crates/net/src/server/io.rs";
    let server = read(path);
    let (start, end) = ("        let mut i = 0;\n", "        if stopping {\n            let drained");
    assert!(server.contains(start) && server.contains(end), "io_loop moved; update this test");
    assert!(findings("H1", path, server.clone()).is_empty(), "unmutated io.rs must be H1-clean");

    let mutated = server
        .replace(start, &format!("        let held_intake = intake.lock();\n{start}"))
        .replace(end, &format!("        drop(held_intake);\n{end}"));
    let h1 = findings("H1", path, mutated);
    assert!(h1.iter().any(|m| m.contains("calls `service_conn` while holding lock `intake`")), "{h1:#?}");
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
