//! Per-rule self-tests: each rule fires on its bad fixture and stays
//! silent on the good one. The structural rules (L1/H1/G1) use on-disk
//! fixtures under `tests/fixtures/`; the workspace-level rules (X1/M1)
//! use small in-memory workspaces. The toolchain-owned rules (P1/D1/C1/F1)
//! are exercised by `tests/toolchain.rs`.

use mmlib_lint::{Budget, Pairs, Report, Workspace};

fn check_one(path: &str, text: &str) -> Report {
    Workspace::from_memory(vec![(path.to_string(), text.to_string())]).check(&Budget::zero())
}

fn check_one_with_pairs(path: &str, text: &str, manifest: &str) -> Report {
    let pairs = Pairs::parse(manifest, "test-manifest").unwrap();
    Workspace::from_memory(vec![(path.to_string(), text.to_string())])
        .check_full(&Budget::zero(), &pairs)
}

fn rules(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------- L1/H1/G1 ----

#[test]
fn l1_fires_on_order_cycle_and_double_acquisition() {
    let r = check_one("crates/net/src/shared.rs", include_str!("fixtures/l1_bad.rs"));
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(rules(&r).iter().all(|&ru| ru == "L1"), "{:#?}", r.violations);
    assert!(msgs.iter().any(|m| m.contains("acquisition-order cycle")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("conns -> stats -> conns")
        || m.contains("stats -> conns -> stats")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("already live")), "{msgs:#?}");
}

#[test]
fn l1_silent_on_consistent_order_and_scoped_guards() {
    let r = check_one("crates/net/src/shared.rs", include_str!("fixtures/l1_good.rs"));
    assert!(r.clean(), "{:#?}", r.violations);
}

#[test]
fn l1_ignores_non_concurrent_crates() {
    let r = check_one("crates/bench/src/shared.rs", include_str!("fixtures/l1_bad.rs"));
    assert!(!rules(&r).contains(&"L1"), "{:#?}", r.violations);
}

#[test]
fn h1_fires_on_direct_and_transitive_io_under_guard() {
    let r = check_one("crates/net/src/out.rs", include_str!("fixtures/h1_bad.rs"));
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(rules(&r).iter().all(|&ru| ru == "H1"), "{:#?}", r.violations);
    assert!(msgs.iter().any(|m| m.contains("`write_all` I/O")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("calls `persist`")), "{msgs:#?}");
}

#[test]
fn h1_silent_when_io_moves_outside_the_guard() {
    let r = check_one("crates/net/src/out.rs", include_str!("fixtures/h1_good.rs"));
    assert!(r.clean(), "{:#?}", r.violations);
}

const G1_MANIFEST: &str = "pair net admit finish_inflight owner=handle_frame\n\
                           pair net swap_remove release_pending scope=block\n";

#[test]
fn g1_fires_on_leak_early_exit_and_block_scope() {
    let r = check_one_with_pairs(
        "crates/net/src/admission.rs",
        include_str!("fixtures/g1_bad.rs"),
        G1_MANIFEST,
    );
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(rules(&r), vec!["G1", "G1", "G1"], "{:#?}", r.violations);
    assert!(msgs.iter().any(|m| m.contains("never `finish_inflight`")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("early exit between `admit`")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("without `release_pending` in the same block")),
        "{msgs:#?}");
}

#[test]
fn g1_silent_on_balanced_owner_and_block_release() {
    let r = check_one_with_pairs(
        "crates/net/src/admission.rs",
        include_str!("fixtures/g1_good.rs"),
        G1_MANIFEST,
    );
    assert!(r.clean(), "{:#?}", r.violations);
}

// ---------------------------------------------------------------- X1 ----

const MINI_PROTOCOL: &str = "
pub enum Opcode {
    Ping = 0x01,
    Get = 0x02,
}
";

const MINI_SERVER: &str = "
fn dispatch(op: Opcode) {
    match op {
        Opcode::Ping => reply(),
        Opcode::Get => get(),
    }
}
";

const MINI_CLIENT: &str = "
pub fn ping() { send(Opcode::Ping); }
pub fn get() { send(Opcode::Get); }
";

const MINI_TEST: &str = "
#[test]
fn wire() { assert_eq!(count(Opcode::Ping), count(Opcode::Get)); }
";

fn x1_workspace(server: &str, client: &str, test: &str) -> Report {
    Workspace::from_memory(vec![
        ("crates/net/src/protocol.rs".to_string(), MINI_PROTOCOL.to_string()),
        ("crates/net/src/server/handlers.rs".to_string(), server.to_string()),
        ("crates/net/src/client.rs".to_string(), client.to_string()),
        ("crates/net/tests/wire.rs".to_string(), test.to_string()),
    ])
    .check(&Budget::zero())
}

#[test]
fn x1_silent_when_every_opcode_is_fully_wired() {
    let r = x1_workspace(MINI_SERVER, MINI_CLIENT, MINI_TEST);
    assert!(r.clean(), "{:#?}", r.violations);
}

#[test]
fn x1_fires_when_a_dispatch_arm_disappears() {
    let server = MINI_SERVER.replace("Opcode::Get => get(),", "_ => reply(),");
    let r = x1_workspace(&server, MINI_CLIENT, MINI_TEST);
    assert_eq!(rules(&r), vec!["X1"], "{:#?}", r.violations);
    assert!(r.violations[0].message.contains("`Get` has no dispatch arm"));
}

#[test]
fn x1_fires_when_client_plumbing_is_missing() {
    let client = MINI_CLIENT.replace("pub fn get() { send(Opcode::Get); }", "");
    let r = x1_workspace(MINI_SERVER, &client, MINI_TEST);
    assert_eq!(rules(&r), vec!["X1"], "{:#?}", r.violations);
    assert!(r.violations[0].message.contains("never referenced by client.rs"));
}

#[test]
fn x1_fires_when_test_coverage_is_missing() {
    let test = MINI_TEST.replace("count(Opcode::Get)", "0");
    let r = x1_workspace(MINI_SERVER, MINI_CLIENT, &test);
    assert_eq!(rules(&r), vec!["X1"], "{:#?}", r.violations);
    assert!(r.violations[0].message.contains("not mentioned by any test"));
}

// ------------------------------------------------- X1 error replies ----

const REPLY_PROTOCOL: &str = "
pub enum Opcode {
    Ping = 0x01,
    Err = 0x7e,
    Busy = 0x7f,
}
";

const REPLY_SERVER: &str = "
fn dispatch(op: Opcode) {
    match op {
        Opcode::Ping => reply(),
        Opcode::Err => echo_err(),
        Opcode::Busy => echo_busy(),
    }
}
";

const REPLY_CLIENT: &str = "
pub fn ping() { send(Opcode::Ping); }
pub fn decode_reply(op: Opcode) { classify(Opcode::Err, Opcode::Busy, op); }
";

const REPLY_TEST_ASSERTED: &str = "
#[test]
fn error_paths() {
    touch(Opcode::Ping);
    assert_eq!(oversized_reply.opcode, Opcode::Err);
    assert!(matches!(flooded_reply.opcode, Opcode::Busy));
}
";

const REPLY_TEST_UNASSERTED: &str = "
#[test]
fn error_paths() {
    touch(Opcode::Ping);
    let _classified = classify(Opcode::Err, Opcode::Busy, reply.opcode);
}
";

fn x1_reply_workspace(test: &str) -> Report {
    Workspace::from_memory(vec![
        ("crates/net/src/protocol.rs".to_string(), REPLY_PROTOCOL.to_string()),
        ("crates/net/src/server/handlers.rs".to_string(), REPLY_SERVER.to_string()),
        ("crates/net/src/client.rs".to_string(), REPLY_CLIENT.to_string()),
        ("crates/net/tests/wire.rs".to_string(), test.to_string()),
    ])
    .check(&Budget::zero())
}

#[test]
fn x1_silent_when_error_replies_are_asserted() {
    let r = x1_reply_workspace(REPLY_TEST_ASSERTED);
    assert!(r.clean(), "{:#?}", r.violations);
}

#[test]
fn x1_fires_when_error_replies_are_merely_mentioned() {
    let r = x1_reply_workspace(REPLY_TEST_UNASSERTED);
    assert_eq!(rules(&r), vec!["X1", "X1"], "{:#?}", r.violations);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`Err` is never asserted")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("`Busy` is never asserted")), "{msgs:#?}");
}

// ---------------------------------------------------------------- M1 ----

const MINI_TAXONOMY: &str = r#"
pub const TAXONOMY: &[(&str, &str)] = &[
    ("mmlib_demo_total", "a demo counter"),
    ("mmlib_idle_total", "declared but never registered"),
];
"#;

const MINI_USER: &str = r#"
pub fn register(r: &Registry) {
    r.counter("mmlib_demo_total");
}
"#;

fn m1_workspace(taxonomy: &str, user: &str) -> Report {
    Workspace::from_memory(vec![
        ("crates/obs/src/taxonomy.rs".to_string(), taxonomy.to_string()),
        ("crates/model/src/metrics.rs".to_string(), user.to_string()),
    ])
    .check(&Budget::zero())
}

#[test]
fn m1_fires_on_undeclared_and_dead_metrics() {
    let user = MINI_USER.replace(
        "r.counter(\"mmlib_demo_total\");",
        "r.counter(\"mmlib_demo_total\");\n    r.counter(\"mmlib_rogue_total\");",
    );
    let r = m1_workspace(MINI_TAXONOMY, &user);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`mmlib_rogue_total`") && m.contains("missing from")));
    assert!(msgs.iter().any(|m| m.contains("`mmlib_idle_total`") && m.contains("never registered")));
}

#[test]
fn m1_fires_on_duplicate_and_camel_case_declarations() {
    let taxonomy = MINI_TAXONOMY.replace(
        "(\"mmlib_idle_total\", \"declared but never registered\"),",
        "(\"mmlib_demo_total\", \"duplicate\"),\n    (\"mmlib_BadName_total\", \"camel\"),",
    );
    let user = MINI_USER.replace(
        "r.counter(\"mmlib_demo_total\");",
        "r.counter(\"mmlib_demo_total\");\n    r.counter(\"mmlib_BadName_total\");",
    );
    let r = m1_workspace(&taxonomy, &user);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("declared more than once")), "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("not snake_case")), "{msgs:#?}");
}

#[test]
fn m1_silent_when_taxonomy_and_usage_agree() {
    let taxonomy = MINI_TAXONOMY
        .replace("    (\"mmlib_idle_total\", \"declared but never registered\"),\n", "");
    let r = m1_workspace(&taxonomy, MINI_USER);
    assert!(r.clean(), "{:#?}", r.violations);
}
