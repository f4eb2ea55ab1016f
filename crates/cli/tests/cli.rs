//! End-to-end tests of the `mmlib` CLI command layer.

use mmlib_cli::{run, CliError};
use mmlib_core::{SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;

fn args(store: &std::path::Path, rest: &[&str]) -> Vec<String> {
    let mut v = vec!["--store".to_string(), store.to_string_lossy().into_owned()];
    v.extend(rest.iter().map(|s| s.to_string()));
    v
}

fn seed_store(dir: &std::path::Path) -> (String, String) {
    let svc = SaveService::new(ModelStorage::open(dir).unwrap());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    model.set_fully_trainable();
    let initial = svc.save(SaveRequest::full(&model)).unwrap().id;
    // Nudge the classifier and save an update.
    model.visit_trainable_mut(&mut |path, param, _| {
        if path.starts_with("fc") {
            param.data_mut()[0] += 1.0;
        }
    });
    let update = svc.save(SaveRequest::update(&model, &initial)).unwrap().id;
    (initial.to_string(), update.to_string())
}

#[test]
fn list_shows_models_and_dependents() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["list"])).unwrap();
    assert!(out.contains(&initial));
    assert!(out.contains(&update));
    assert!(out.contains("2 model(s)"));
    assert!(out.contains("BA") && out.contains("PUA"));
}

#[test]
fn show_renders_the_document() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, _) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["show", &initial])).unwrap();
    assert!(out.contains("\"approach\": \"baseline\""));
    assert!(out.contains("\"arch\": \"tinycnn\""));
}

#[test]
fn chain_prints_the_recovery_path() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["chain", &update])).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains(&update));
    assert!(lines[1].contains(&initial));
}

/// Regression: on a forged cyclic base reference `chain` never returned.
/// It now prints the chain truncated at the store's model count (the
/// repeated id shows the cycle; `verify` reports it as an error) and exits 0.
#[test]
fn chain_returns_on_a_cyclic_base_reference() {
    let dir = tempfile::tempdir().unwrap();
    let (_, update) = seed_store(dir.path());
    let storage = ModelStorage::open(dir.path()).unwrap();
    let doc_id = mmlib_store::DocId::from_string(update.clone());
    let mut body = storage.get_doc(&doc_id).unwrap().body;
    body["base_model"] = serde_json::json!(update.as_str());
    storage.update_doc(&doc_id, body).unwrap();

    let out = run(&args(dir.path(), &["chain", &update])).unwrap();
    assert_eq!(out.lines().count(), 2, "{out}");
    assert!(out.lines().all(|line| line.contains(&update)), "{out}");
    assert!(matches!(run(&args(dir.path(), &["verify", &update])), Err(CliError::Failed(_))));
}

#[test]
fn verify_recovers_and_reports() {
    let dir = tempfile::tempdir().unwrap();
    let (_, update) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["verify", &update])).unwrap();
    assert!(out.contains("verified OK"));
    assert!(out.contains("chain depth 1"));
}

#[test]
fn recover_writes_a_state_dict_file() {
    let dir = tempfile::tempdir().unwrap();
    let (_, update) = seed_store(dir.path());
    let out_file = dir.path().join("recovered.mmsd");
    let out = run(&args(dir.path(), &["recover", &update, "--out", out_file.to_str().unwrap()]))
        .unwrap();
    assert!(out.contains("recovered tinycnn"));
    let bytes = std::fs::read(&out_file).unwrap();
    let entries = mmlib_tensor::ser::state_from_bytes(&bytes).unwrap();
    assert!(!entries.is_empty());
}

#[test]
fn delete_refuses_bases_then_deletes_leaves() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    assert!(matches!(
        run(&args(dir.path(), &["delete", &initial])),
        Err(CliError::Failed(_))
    ));
    let out = run(&args(dir.path(), &["delete", &update])).unwrap();
    assert!(out.contains("deleted"));
    let out = run(&args(dir.path(), &["delete", &initial])).unwrap();
    assert!(out.contains("deleted"));
    let out = run(&args(dir.path(), &["list"])).unwrap();
    assert!(out.contains("0 model(s)"));
}

#[test]
fn gc_keeps_requested_chains() {
    let dir = tempfile::tempdir().unwrap();
    let (_, update) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["gc", "--keep", &update])).unwrap();
    assert!(out.contains("removed 0 model(s)"), "{out}");
    let out = run(&args(dir.path(), &["gc"])).unwrap();
    assert!(out.contains("removed 2 model(s)"), "{out}");
}

#[test]
fn stats_summarizes() {
    let dir = tempfile::tempdir().unwrap();
    seed_store(dir.path());
    let out = run(&args(dir.path(), &["stats"])).unwrap();
    assert!(out.contains("models: 2"));
    assert!(out.contains("BA: 1"));
    assert!(out.contains("PUA: 1"));
    assert!(out.contains("leaves (deletable): 1"));
}

#[test]
fn usage_errors_are_reported() {
    let dir = tempfile::tempdir().unwrap();
    assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    assert!(matches!(run(&args(dir.path(), &[])), Err(CliError::Usage(_))));
    assert!(matches!(run(&args(dir.path(), &["frobnicate"])), Err(CliError::Usage(_))));
    assert!(matches!(run(&args(dir.path(), &["show"])), Err(CliError::Usage(_))));
    assert!(matches!(run(&args(dir.path(), &["lineage"])), Err(CliError::Usage(_))));
    assert!(matches!(run(&args(dir.path(), &["lineage", "warp", "x"])), Err(CliError::Usage(_))));
}

#[test]
fn lineage_show_ancestry_diff_and_tag() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());

    let out = run(&args(dir.path(), &["lineage", "show", &update])).unwrap();
    assert!(out.contains(&format!("parent:   {initial}")), "{out}");
    assert!(out.contains("approach: PUA"), "{out}");

    let out = run(&args(dir.path(), &["lineage", "ancestry", &update])).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains(&update) && lines[1].contains(&initial));

    let out = run(&args(dir.path(), &["lineage", "diff", &initial, &update])).unwrap();
    assert!(out.contains("layer(s) changed"), "{out}");
    assert!(out.contains(&format!("common ancestor: {initial}")), "{out}");

    let out = run(&args(dir.path(), &["lineage", "tag", &update, "best"])).unwrap();
    assert!(out.contains("tags [best]"), "{out}");
    let out = run(&args(dir.path(), &["lineage", "show", &update])).unwrap();
    assert!(out.contains("tags:     [best]"), "{out}");
}

#[test]
fn lineage_compact_promotes_and_recovery_still_verifies() {
    let dir = tempfile::tempdir().unwrap();
    let (_, update) = seed_store(dir.path());
    // The seeded chain is depth 1; a bound of 1 promotes the tip itself.
    let out =
        run(&args(dir.path(), &["lineage", "compact", &update, "--max-depth", "1"])).unwrap();
    assert!(out.contains("1 promotion(s)"), "{out}");
    assert!(out.contains(&format!("promoted {update} to snapshot")), "{out}");

    let out = run(&args(dir.path(), &["verify", &update])).unwrap();
    assert!(out.contains("verified OK") && out.contains("chain depth 0"), "{out}");
    let out = run(&args(dir.path(), &["lineage", "ancestry", &update])).unwrap();
    assert!(out.contains("[rebased from"), "{out}");
    // `show` reports what the promoted model-info records: a snapshot,
    // with no update layers to count.
    let out = run(&args(dir.path(), &["lineage", "show", &update])).unwrap();
    assert!(out.contains("approach: BA") && out.contains("rebased:  from"), "{out}");
    assert!(!out.contains("changed:"), "{out}");
    let out = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(out.contains("clean"), "{out}");
}

/// A document of the retired `lineage` kind, left in a store of saved
/// models, is no lineage node: lineage ignores it, GC leaves it alone, and
/// fsck reports it as an orphan document that `--repair` quarantines.
#[test]
fn a_leftover_lineage_document_is_an_orphan() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    let show = |id: &str| run(&args(dir.path(), &["lineage", "show", id])).unwrap();
    let (shown_initial, shown_update) = (show(&initial), show(&update));

    let storage = ModelStorage::open(dir.path()).unwrap();
    let record = serde_json::json!({
        "model": &update, "parent": null, "approach": "baseline",
        "relation": "initial", "root_hash": "00", "tags": ["stale"],
    });
    let leftover = storage.insert_doc("lineage", record).unwrap();

    let graph = mmlib_store::schema::LineageGraph::read(&storage).unwrap();
    assert_eq!(graph.len(), 2);
    assert_eq!((show(&initial), show(&update)), (shown_initial, shown_update));

    let out = run(&args(dir.path(), &["gc", "--keep", &update])).unwrap();
    assert!(out.contains("removed 0 model(s)"), "{out}");
    assert!(storage.contains_doc(&leftover));

    let out = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(out.contains(&format!("orphan document {leftover} (kind \"lineage\")")), "{out}");
    assert!(out.contains("1 issue(s)"), "{out}");
    let out = run(&args(dir.path(), &["fsck", "--repair"])).unwrap();
    assert!(out.contains("1 entr(ies) quarantined"), "{out}");
    assert!(!storage.contains_doc(&leftover));
    let out = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(out.contains("clean"), "{out}");
}

#[test]
fn lineage_remote_uses_the_dedicated_opcodes() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    let server = mmlib_net::RegistryServer::bind(
        ModelStorage::open(dir.path()).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let remote = |rest: &[&str]| {
        let mut v = vec!["--remote".to_string(), server.addr().to_string()];
        v.extend(rest.iter().map(|s| s.to_string()));
        v
    };
    // Over the wire, a lineage query prints byte for byte what it prints
    // against the store directory.
    let same_both_ways = |rest: &[&str]| {
        let there = run(&remote(rest)).unwrap();
        assert_eq!(there, run(&args(dir.path(), rest)).unwrap(), "{rest:?}");
        there
    };

    let out = same_both_ways(&["lineage", "show", &update]);
    assert!(out.contains(&initial), "{out}");
    let out = same_both_ways(&["lineage", "ancestry", &update]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].contains(&update) && lines[1].contains(&initial));

    // The dedicated opcodes served these, not a document walk.
    assert_eq!(server.metrics().requests(mmlib_net::Opcode::LineageGet), 1);
    assert_eq!(server.metrics().requests(mmlib_net::Opcode::LineageAncestry), 1);

    // A lineage subcommand without a dedicated opcode still works remotely
    // through the generic storage backend.
    let out = run(&remote(&["lineage", "diff", &initial, &update])).unwrap();
    assert!(out.contains("layer(s) changed"), "{out}");

    // Tags and a compaction's rebased edge read the same both ways too.
    run(&remote(&["lineage", "tag", &update, "best"])).unwrap();
    run(&remote(&["lineage", "compact", &update, "--max-depth", "1"])).unwrap();
    let out = same_both_ways(&["lineage", "show", &update]);
    assert!(out.contains("tags:     [best]") && out.contains("rebased:  from"), "{out}");
    let out = same_both_ways(&["lineage", "ancestry", &update]);
    assert!(out.contains("[rebased from"), "{out}");
    assert_eq!(server.metrics().requests(mmlib_net::Opcode::LineageGet), 2);
    assert_eq!(server.metrics().requests(mmlib_net::Opcode::LineageAncestry), 2);
}

#[test]
fn probe_reports_reproducibility() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, _) = seed_store(dir.path());
    let out = run(&args(dir.path(), &["probe", &initial])).unwrap();
    assert!(out.contains("REPRODUCIBLE under Deterministic"), "{out}");
    assert!(matches!(
        run(&args(dir.path(), &["probe", &initial, "bogus"])),
        Err(CliError::Usage(_))
    ));
}

#[test]
fn remote_flag_runs_commands_against_a_served_store() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());
    let server = mmlib_net::RegistryServer::bind(
        ModelStorage::open(dir.path()).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let remote = |rest: &[&str]| {
        let mut v = vec!["--remote".to_string(), server.addr().to_string()];
        v.extend(rest.iter().map(|s| s.to_string()));
        v
    };

    // list / show / verify / recover — the documented remote commands.
    let out = run(&remote(&["list"])).unwrap();
    assert!(out.contains(&initial) && out.contains("2 model(s)"));

    let out = run(&remote(&["show", &initial])).unwrap();
    assert!(out.contains("\"approach\": \"baseline\""));

    let out = run(&remote(&["verify", &update])).unwrap();
    assert!(out.contains("verified OK"));

    // fsck works over the wire too: reference resolution and hash checks
    // run through the remote backend (repair needs the local store).
    let out = run(&remote(&["fsck"])).unwrap();
    assert!(out.contains("clean"), "remote fsck: {out}");

    let out_file = dir.path().join("remote-recovered.bin");
    let out = run(&remote(&["recover", &update, "--out", out_file.to_str().unwrap()])).unwrap();
    assert!(out.contains("recovered"));
    assert!(out_file.metadata().unwrap().len() > 0);

    // Registry metrics saw the traffic.
    assert!(server.metrics().total_requests() > 0);

    // `stats --remote` renders the server's registry, not local doc counts.
    let out = run(&remote(&["stats"])).unwrap();
    assert!(out.contains("# TYPE mmlib_net_requests_total counter"), "{out}");
    assert!(out.contains("mmlib_net_request_seconds_bucket"), "{out}");
    assert!(out.contains("mmlib_net_bytes_out_total"), "{out}");
}

#[test]
fn remote_stats_includes_phase_taxonomy_when_served_like_serve() {
    // A server configured the way `mmlib serve` configures one: the core
    // save/recover phase taxonomy is pre-registered on its recorder, so
    // the exposition carries phase histograms alongside wire metrics.
    let dir = tempfile::tempdir().unwrap();
    seed_store(dir.path());
    let recorder = std::sync::Arc::new(mmlib_obs::Recorder::new());
    mmlib_core::register_metrics(&recorder);
    let server = mmlib_net::RegistryServer::bind_with_config(
        ModelStorage::open(dir.path()).unwrap(),
        "127.0.0.1:0",
        mmlib_net::ServerConfig { recorder: Some(recorder), ..Default::default() },
    )
    .unwrap();
    let out = run(&[
        "--remote".to_string(),
        server.addr().to_string(),
        "stats".to_string(),
    ])
    .unwrap();
    assert!(out.contains("# TYPE mmlib_save_phase_seconds histogram"), "{out}");
    assert!(out.contains("mmlib_save_phase_seconds_count{phase=\"hash\"}"), "{out}");
    assert!(out.contains("mmlib_recover_phase_seconds_count{phase=\"fetch\"}"), "{out}");
    assert!(out.contains("mmlib_net_requests_total{opcode=\"stats_text\"} 1"), "{out}");
}

#[test]
fn remote_flag_reports_connection_failures() {
    // A port nothing listens on: the command must fail, not hang.
    let err = run(&[
        "--remote".to_string(),
        "127.0.0.1:1".to_string(),
        "list".to_string(),
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
}

#[test]
fn serve_command_serves_then_reports() {
    let dir = tempfile::tempdir().unwrap();
    seed_store(dir.path());
    // `--for 1` keeps run() bounded; the ephemeral port avoids collisions.
    let out = run(&args(dir.path(), &["serve", "--addr", "127.0.0.1:0", "--for", "1"])).unwrap();
    assert!(out.contains("served 0 request(s)"), "unexpected summary: {out}");
}

#[test]
fn serve_requires_a_local_store() {
    let err = run(&["serve".to_string()]).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
}

/// `mmlib fsck` must detect every injected corruption: a truncated weights
/// blob, a bit-flipped (unparsable) document, and an orphaned file — and
/// `--repair` must quarantine the damage.
#[test]
fn fsck_detects_every_injected_corruption() {
    let dir = tempfile::tempdir().unwrap();
    let (initial, update) = seed_store(dir.path());

    let clean = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(clean.contains("clean"), "fresh store must fsck clean: {clean}");

    let storage = ModelStorage::open(dir.path()).unwrap();
    let info = storage
        .get_doc(&mmlib_store::DocId::from_string(initial.clone()))
        .unwrap();

    // Corruption 1: truncate the baseline's weights blob.
    let weights = info.body["weights_file"].as_str().unwrap();
    let blob_path = dir.path().join("files").join(format!("{weights}.bin"));
    let bytes = std::fs::read(&blob_path).unwrap();
    std::fs::write(&blob_path, &bytes[..bytes.len() / 3]).unwrap();

    // Corruption 2: bit-flip the update's model-info document into
    // invalid JSON.
    let doc_path = dir.path().join("docs").join(format!("{update}.json"));
    let mut doc_bytes = std::fs::read(&doc_path).unwrap();
    doc_bytes[0] ^= 0x80;
    std::fs::write(&doc_path, &doc_bytes).unwrap();

    // Corruption 3: a blob no saved model references.
    let orphan = storage.put_file(b"stray bytes").unwrap();

    let out = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(out.contains("corrupt blob"), "truncated blob missed: {out}");
    assert!(out.contains("corrupt document"), "flipped doc missed: {out}");
    assert!(
        out.contains(&format!("orphan file {orphan}")),
        "orphan file missed: {out}"
    );

    let repaired = run(&args(dir.path(), &["fsck", "--repair"])).unwrap();
    assert!(repaired.contains("quarantined"), "no repairs reported: {repaired}");
    assert!(!blob_path.exists() && !doc_path.exists());

    // Only the now-dangling references remain; the damage itself is gone.
    let after = run(&args(dir.path(), &["fsck"])).unwrap();
    assert!(!after.contains("corrupt"), "damage must be quarantined: {after}");
    assert!(after.contains("missing"), "dangling refs still reported: {after}");
}

#[test]
fn fsck_rejects_unknown_flags() {
    let dir = tempfile::tempdir().unwrap();
    seed_store(dir.path());
    let err = run(&args(dir.path(), &["fsck", "--frobnicate"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
}
