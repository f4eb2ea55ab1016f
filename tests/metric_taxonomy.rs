//! The metric taxonomy is the complete dictionary of what a deployment can
//! scrape. Every instrumented crate registers all of its metric names in
//! one `register_metrics`; called together on a fresh recorder, they must
//! produce exactly the names `mmlib_obs::taxonomy::TAXONOMY` declares — no
//! undeclared name, no declared name that nothing registers — all of them
//! snake_case.

use std::collections::BTreeSet;

use mmlib::obs::taxonomy::TAXONOMY;
use mmlib::obs::Recorder;

#[test]
fn registered_metrics_are_exactly_the_taxonomy() {
    let recorder = Recorder::new();
    mmlib::core::register_metrics(&recorder);
    mmlib::lineage::register_metrics(&recorder);
    mmlib::store::register_metrics(&recorder);
    mmlib::tensor::register_metrics(&recorder);
    mmlib::net::register_metrics(&recorder);
    mmlib::obs::register_metrics(&recorder);

    let registered: BTreeSet<String> = recorder.snapshot().into_iter().map(|m| m.name).collect();
    let declared: BTreeSet<String> = TAXONOMY.iter().map(|d| d.name.to_string()).collect();

    let undeclared: Vec<&String> = registered.difference(&declared).collect();
    assert!(undeclared.is_empty(), "registered but missing from the taxonomy: {undeclared:?}");
    let unregistered: Vec<&String> = declared.difference(&registered).collect();
    assert!(unregistered.is_empty(), "in the taxonomy but registered by no crate: {unregistered:?}");

    for name in &registered {
        let snake = name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && !name.contains("__");
        assert!(snake, "metric `{name}` is not snake_case");
    }
}
