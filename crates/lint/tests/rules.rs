//! Per-rule self-tests: each rule fires on its bad fixture under
//! `tests/fixtures/` and stays silent on the good one.

use mmlib_lint::{Budget, Report, Workspace};

fn check_one(path: &str, text: &str) -> Report {
    Workspace::from_memory(vec![(path.to_string(), text.to_string())]).check(&Budget::zero())
}

fn rules(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule).collect()
}

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
