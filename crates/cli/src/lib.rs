//! Command implementations for the `mmlib` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin argv wrapper around [`run`], which
//! returns the rendered output so commands are directly testable.

use std::fmt::Write as _;
use std::path::Path;

use mmlib_core::gc::{collect_garbage, delete_model, dependency_graph};
use mmlib_core::meta::{LineageRecordDoc, SavedModelId};
use mmlib_core::{RecoverOptions, SaveService};
use mmlib_store::{DocId, ModelStorage};

/// CLI errors: usage problems or underlying operation failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the string is the usage message.
    Usage(String),
    /// An operation failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "usage: {u}"),
            CliError::Failed(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

fn fail<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Failed(e.to_string())
}

const USAGE: &str = "mmlib (--store <dir> | --remote <addr>) <command>\n\
commands:\n  \
  list                     list saved models\n  \
  show <id>                show one model's metadata\n  \
  chain <id>               print the recovery chain\n  \
  verify <id>              recover + verify a model, print the breakdown\n  \
  recover <id> --out <f>   recover a model and write its state dict to a file\n  \
  delete <id>              delete a model (refused while dependents exist)\n  \
  gc --keep <id,id,...>    garbage-collect everything unreachable from the kept models\n  \
  probe <id> [det|par]     recover a model and probe its reproducibility\n  \
  fsck [--repair] [--no-hashes]\n                           \
check store consistency: re-verify layer hashes, find\n                           \
orphans/truncations; --repair quarantines damaged entries\n  \
  stats                    store statistics; with --remote, the server's\n                           \
live metrics registry in Prometheus text format\n                           \
(per-opcode requests/latency/bytes, save/recover phases)\n  \
  lineage show <id>        one model's lineage record (parent, diff, tags)\n  \
  lineage ancestry <id>    the lineage chain from a model to its root\n  \
  lineage diff <a> <b>     layer-level diff between two saved versions\n  \
  lineage compact <id> [--max-depth <n>]\n                           \
re-base the model's delta chain: promote every n-th\n                           \
node to a full snapshot (default n = 8) so recovery\n                           \
time stays flat; recovery stays byte-identical\n  \
  lineage tag <id> <tag>   attach a tag to a model's lineage record\n  \
  serve --addr <ip:port> [--for <secs>] [--max-connections <n>]\n                           \
serve the store as a TCP model registry (requires --store),\n                           \
one thread per connection; past --max-connections\n                           \
(default 256) a new connection is refused with Busy\n\
\n\
--remote <addr> runs a command against a registry served elsewhere\n\
(`mmlib serve`) instead of a local --store directory.";

/// Runs one CLI invocation, returning the rendered output.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut store_dir: Option<String> = None;
    let mut remote_addr: Option<String> = None;
    let mut rest: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--store" {
            store_dir = iter.next().cloned();
        } else if arg == "--remote" {
            remote_addr = iter.next().cloned();
        } else {
            rest.push(arg.as_str());
        }
    }
    let (&command, tail) = rest.split_first().ok_or_else(|| CliError::Usage(USAGE.into()))?;

    if command == "serve" {
        let store_dir = store_dir
            .ok_or_else(|| CliError::Usage(format!("serve needs a local --store\n{USAGE}")))?;
        return serve(&store_dir, tail);
    }

    // `stats --remote` asks the server for its registry instead of walking
    // documents: the server sees every node's traffic, the client doesn't.
    if command == "stats" {
        if let Some(addr) = &remote_addr {
            let client = mmlib_net::RemoteStore::builder(addr.as_str()).build().map_err(fail)?;
            return client.server_stats_text().map_err(fail);
        }
    }

    // `lineage show/ancestry --remote` use the dedicated registry opcodes
    // (one request instead of a full document walk); the other lineage
    // subcommands fall through to the generic remote-backed storage path.
    if command == "lineage" {
        if let Some(addr) = &remote_addr {
            if let Some(out) = lineage_remote(addr, tail)? {
                return Ok(out);
            }
        }
    }

    let storage = match (store_dir, remote_addr) {
        (Some(dir), None) => ModelStorage::open(Path::new(&dir)).map_err(fail)?,
        (None, Some(addr)) => mmlib_net::RemoteStore::builder(addr.as_str())
            .build()
            .map_err(fail)?
            .into_storage(),
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    let svc = SaveService::new(storage);
    match command {
        "list" => list(&svc),
        "show" => show(&svc, one_id(tail)?),
        "chain" => chain(&svc, one_id(tail)?),
        "verify" => verify(&svc, one_id(tail)?),
        "recover" => recover(&svc, tail),
        "delete" => delete(&svc, one_id(tail)?),
        "gc" => gc(&svc, tail),
        "probe" => probe(&svc, tail),
        "fsck" => fsck(&svc, tail),
        "stats" => stats(&svc),
        "lineage" => lineage_cmd(&svc, tail),
        other => Err(CliError::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// Serves a local store over TCP: `mmlib --store <dir> serve --addr <a>`.
///
/// Runs until interrupted, or for `--for <secs>` seconds (useful for
/// scripts and tests), then reports what the server measured.
fn serve(store_dir: &str, tail: &[&str]) -> Result<String, CliError> {
    let mut addr = "127.0.0.1:7440".to_string();
    let mut run_for: Option<u64> = None;
    let mut max_connections = mmlib_net::ServerConfig::default().max_connections;
    let mut iter = tail.iter();
    let parse_count = |flag: &str, value: Option<&&str>| -> Result<usize, CliError> {
        let value = value.ok_or_else(|| CliError::Usage(USAGE.into()))?;
        value.parse().map_err(|_| {
            CliError::Usage(format!("{flag} needs a positive count, got {value:?}"))
        })
    };
    while let Some(&flag) = iter.next() {
        match flag {
            "--addr" => {
                addr = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(USAGE.into()))?
                    .to_string();
            }
            "--for" => {
                let secs = iter.next().ok_or_else(|| CliError::Usage(USAGE.into()))?;
                run_for = Some(secs.parse().map_err(|_| {
                    CliError::Usage(format!("--for needs a number of seconds, got {secs:?}"))
                })?);
            }
            "--max-connections" => max_connections = parse_count(flag, iter.next())?,
            other => return Err(CliError::Usage(format!("unknown serve flag {other:?}\n{USAGE}"))),
        }
    }
    let storage = ModelStorage::open(Path::new(store_dir)).map_err(fail)?;
    // The server's registry carries its own wire metrics plus the full
    // save/recover phase taxonomy (pre-registered so `mmlib stats --remote`
    // always shows the complete exposition, even before any save ran).
    let recorder = std::sync::Arc::new(mmlib_obs::Recorder::new());
    mmlib_core::register_metrics(&recorder);
    let config = mmlib_net::ServerConfig {
        max_connections,
        recorder: Some(recorder),
        ..Default::default()
    };
    // A bad value (zero connections) is refused with the config's own
    // explanation.
    config.validate().map_err(|e| CliError::Usage(format!("{e}\n{USAGE}")))?;
    let mut server =
        mmlib_net::RegistryServer::bind_with_config(storage, addr.as_str(), config).map_err(fail)?;
    // Announce immediately — clients need the address while we block.
    println!("mmlib registry serving {store_dir} on {}", server.addr());
    match run_for {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    let metrics = server.metrics().snapshot();
    server.shutdown();
    let mut out = String::new();
    writeln!(out, "served {} request(s) over {} connection(s)",
        metrics["total_requests"].as_u64().unwrap_or(0),
        metrics["connections"].as_u64().unwrap_or(0))
    .unwrap();
    writeln!(out, "bytes in {}, bytes out {}",
        metrics["bytes_in"].as_u64().unwrap_or(0),
        metrics["bytes_out"].as_u64().unwrap_or(0))
    .unwrap();
    Ok(out)
}

fn one_id(tail: &[&str]) -> Result<SavedModelId, CliError> {
    match tail {
        [id] => Ok(SavedModelId(DocId::from_string((*id).to_string()))),
        _ => Err(CliError::Usage(USAGE.into())),
    }
}

fn list(svc: &SaveService) -> Result<String, CliError> {
    let graph = dependency_graph(svc).map_err(fail)?;
    let mut out = String::new();
    writeln!(out, "{:<14} {:<4} {:<13} {:<18} {:<14} DEPENDENTS", "ID", "VIA", "ARCH", "RELATION", "BASE")
        .unwrap();
    for (id, info) in &graph.models {
        let deps = graph.dependents.get(id).map_or(0, |d| d.len());
        writeln!(
            out,
            "{:<14} {:<4} {:<13} {:<18} {:<14} {}",
            id.to_string(),
            info.approach.abbrev(),
            info.arch,
            format!("{:?}", info.relation),
            info.base_model.as_deref().unwrap_or("-"),
            deps
        )
        .unwrap();
    }
    writeln!(out, "{} model(s)", graph.models.len()).unwrap();
    Ok(out)
}

fn show(svc: &SaveService, id: SavedModelId) -> Result<String, CliError> {
    let doc = svc.storage().get_doc(id.doc_id()).map_err(fail)?;
    serde_json::to_string_pretty(&doc.body).map_err(fail)
}

/// Prints the recovery chain. On a corrupt cyclic base reference the chain
/// is cut at the store's model count (`DependencyGraph::chain_of`): the
/// repeated ids show the cycle, and `verify` reports it as an error.
fn chain(svc: &SaveService, id: SavedModelId) -> Result<String, CliError> {
    let graph = dependency_graph(svc).map_err(fail)?;
    if !graph.models.contains_key(&id) {
        return Err(CliError::Failed(format!("{id} is not a saved model")));
    }
    let mut out = String::new();
    for (depth, link) in graph.chain_of(&id).iter().enumerate() {
        let info = &graph.models[link];
        writeln!(
            out,
            "{}{} ({} {:?})",
            "  ".repeat(depth),
            link,
            info.approach.abbrev(),
            info.relation
        )
        .unwrap();
    }
    Ok(out)
}

fn verify(svc: &SaveService, id: SavedModelId) -> Result<String, CliError> {
    let rec = svc.recover_report(&id, RecoverOptions::default()).map_err(fail)?;
    let mut out = format!(
        "{id}: verified OK (arch {}, chain depth {})\n",
        rec.model.arch.name(),
        rec.recovered_bases
    );
    for (phase, d) in rec.phases.entries() {
        write!(out, "{phase} {d:?}, ").unwrap();
    }
    writeln!(out, "total {:?}", rec.ttr).unwrap();
    Ok(out)
}

fn recover(svc: &SaveService, tail: &[&str]) -> Result<String, CliError> {
    let (id, out_path) = match tail {
        [id, flag, path] if *flag == "--out" => {
            (SavedModelId(DocId::from_string((*id).to_string())), *path)
        }
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    let rec = svc.recover_report(&id, RecoverOptions::default()).map_err(fail)?;
    let entries = rec.model.state_entries();
    let bytes = mmlib_tensor::ser::state_to_bytes(
        entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>(),
    );
    std::fs::write(out_path, &bytes).map_err(fail)?;
    Ok(format!(
        "{id}: recovered {} ({} entries, {} bytes) -> {out_path}\n",
        rec.model.arch.name(),
        entries.len(),
        bytes.len()
    ))
}

fn delete(svc: &SaveService, id: SavedModelId) -> Result<String, CliError> {
    let report = delete_model(svc, &id).map_err(fail)?;
    Ok(format!(
        "deleted {id}: {} docs, {} files, {} bytes reclaimed\n",
        report.removed_docs, report.removed_files, report.reclaimed_bytes
    ))
}

fn gc(svc: &SaveService, tail: &[&str]) -> Result<String, CliError> {
    let keep: Vec<SavedModelId> = match tail {
        [flag, ids] if *flag == "--keep" => ids
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| SavedModelId(DocId::from_string(s.to_string())))
            .collect(),
        [] => Vec::new(),
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    let report = collect_garbage(svc, &keep).map_err(fail)?;
    Ok(format!(
        "gc: removed {} model(s), {} docs, {} files, {} bytes reclaimed\n",
        report.removed_models.len(),
        report.removed_docs,
        report.removed_files,
        report.reclaimed_bytes
    ))
}

/// Recovers a model and runs the probing tool on a synthetic batch,
/// reporting whether two executions agree bit-for-bit (paper §2.4).
fn probe(svc: &SaveService, tail: &[&str]) -> Result<String, CliError> {
    let (id, mode) = match tail {
        [id] => (SavedModelId(DocId::from_string((*id).to_string())), "det"),
        [id, mode] => (SavedModelId(DocId::from_string((*id).to_string())), *mode),
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    let exec = match mode {
        "det" => mmlib_tensor::ExecMode::Deterministic,
        "par" => mmlib_tensor::ExecMode::Parallel,
        other => return Err(CliError::Usage(format!("unknown mode {other:?} (det|par)"))),
    };
    let mut rec = svc.recover_report(&id, RecoverOptions::default()).map_err(fail)?;
    rec.model.set_fully_trainable();
    let res = rec.model.arch.min_resolution();
    let loader = mmlib_data::DataLoader::new(
        mmlib_data::Dataset::new(mmlib_data::DatasetId::CocoOutdoor512, 0.0005),
        mmlib_data::loader::LoaderConfig {
            batch_size: 4,
            resolution: res,
            max_images: Some(4),
            ..Default::default()
        },
    );
    let batch = loader.batch(0, 0).expect("probe batch");
    let cmp = mmlib_core::probe::probe_reproducibility(&mut rec.model, &batch, 7, exec);
    Ok(if cmp.reproducible {
        format!("{id}: REPRODUCIBLE under {exec:?} ({} intermediate records compared)\n", cmp.compared)
    } else {
        format!(
            "{id}: NOT reproducible under {exec:?}; first divergence at {}\n",
            cmp.first_divergence.unwrap_or_default()
        )
    })
}

/// Checks the store for crash damage and dangling references:
/// `mmlib --store <dir> fsck [--repair] [--no-hashes]`.
fn fsck(svc: &SaveService, tail: &[&str]) -> Result<String, CliError> {
    let mut opts = mmlib_core::FsckOptions::default();
    for flag in tail {
        match *flag {
            "--repair" => opts.repair = true,
            "--no-hashes" => opts.verify_hashes = false,
            other => return Err(CliError::Usage(format!("unknown fsck flag {other:?}\n{USAGE}"))),
        }
    }
    let report = mmlib_core::fsck::fsck(svc.storage(), &opts).map_err(fail)?;
    let mut out = String::new();
    for issue in &report.issues {
        writeln!(out, "{issue}").unwrap();
    }
    for dest in &report.quarantined {
        writeln!(out, "quarantined {}", dest.display()).unwrap();
    }
    writeln!(out, "fsck: {report}").unwrap();
    Ok(out)
}

/// `mmlib lineage <show|ancestry|diff|compact|tag> ...` over any storage
/// (local directory or remote-backed).
fn lineage_cmd(svc: &SaveService, tail: &[&str]) -> Result<String, CliError> {
    let lineage = mmlib_lineage::Lineage::new(svc);
    let id_of = |s: &str| SavedModelId(DocId::from_string(s.to_string()));
    match tail {
        ["show", id] => Ok(render_record(&lineage.show(&id_of(id)).map_err(fail)?.record)),
        ["ancestry", id] => {
            let chain = lineage.ancestry(&id_of(id)).map_err(fail)?;
            Ok(render_ancestry(chain.iter().map(|node| &node.record)))
        }
        ["diff", a, b] => {
            let diff = lineage.diff(&id_of(a), &id_of(b)).map_err(fail)?;
            let mut out = String::new();
            writeln!(
                out,
                "{} vs {}: {} of {} layer(s) changed",
                diff.a,
                diff.b,
                diff.changed_layers.len(),
                diff.total_layers
            )
            .unwrap();
            for layer in &diff.changed_layers {
                writeln!(out, "  ~ {layer}").unwrap();
            }
            match &diff.common_ancestor {
                Some(anc) => writeln!(out, "common ancestor: {anc}").unwrap(),
                None => writeln!(out, "no common ancestor").unwrap(),
            }
            Ok(out)
        }
        ["compact", id, rest @ ..] => {
            let max_depth = match rest {
                [] => 8,
                ["--max-depth", n] => n.parse().map_err(|_| {
                    CliError::Usage(format!("--max-depth needs a positive number, got {n:?}"))
                })?,
                _ => return Err(CliError::Usage(USAGE.into())),
            };
            let report = lineage.compact(&id_of(id), max_depth).map_err(fail)?;
            let mut out = String::new();
            writeln!(
                out,
                "compacted chain of {} node(s) to max depth {}: {} promotion(s), {} bytes written",
                report.chain.len(),
                report.max_depth,
                report.promoted.len(),
                report.bytes_written
            )
            .unwrap();
            for id in &report.promoted {
                writeln!(out, "  promoted {id} to snapshot").unwrap();
            }
            Ok(out)
        }
        ["tag", id, tag] => {
            let node = lineage.tag(&id_of(id), tag).map_err(fail)?;
            Ok(format!("{}: tags [{}]\n", node.id, node.record.tags.join(", ")))
        }
        _ => Err(CliError::Usage(USAGE.into())),
    }
}

/// One lineage record, as `lineage show` prints it.
fn render_record(record: &LineageRecordDoc) -> String {
    let mut out = String::new();
    writeln!(out, "model:    {}", record.model).unwrap();
    writeln!(out, "approach: {}", record.approach.abbrev()).unwrap();
    writeln!(out, "relation: {:?}", record.relation).unwrap();
    writeln!(out, "parent:   {}", record.parent.as_deref().unwrap_or("-")).unwrap();
    if let Some(old) = &record.rebased_from {
        writeln!(out, "rebased:  from {old}").unwrap();
    }
    if let Some(n) = record.changed_layers {
        writeln!(out, "changed:  {n} layer(s) vs parent").unwrap();
    }
    writeln!(out, "root:     {}", record.root_hash).unwrap();
    if !record.tags.is_empty() {
        writeln!(out, "tags:     [{}]", record.tags.join(", ")).unwrap();
    }
    out
}

/// An ancestry, tip first, as `lineage ancestry` prints it.
fn render_ancestry<'a>(chain: impl Iterator<Item = &'a LineageRecordDoc>) -> String {
    let mut out = String::new();
    for (depth, record) in chain.enumerate() {
        writeln!(
            out,
            "{}{} ({} {:?}){}",
            "  ".repeat(depth),
            record.model,
            record.approach.abbrev(),
            record.relation,
            match &record.rebased_from {
                Some(old) => format!(" [rebased from {old}]"),
                None => String::new(),
            }
        )
        .unwrap();
    }
    out
}

/// `lineage show/ancestry` against a remote registry: one request on the
/// dedicated wire opcode, printed by the same renderer as the local
/// command. Returns `None` for subcommands that have no dedicated opcode
/// (they run through the generic remote storage path instead).
fn lineage_remote(addr: &str, tail: &[&str]) -> Result<Option<String>, CliError> {
    let client = || mmlib_net::RemoteStore::builder(addr).build().map_err(fail);
    match tail {
        ["show", id] => Ok(Some(render_record(&client()?.lineage_node(id).map_err(fail)?))),
        ["ancestry", id] => {
            Ok(Some(render_ancestry(client()?.lineage_chain(id).map_err(fail)?.iter())))
        }
        _ => Ok(None),
    }
}

fn stats(svc: &SaveService) -> Result<String, CliError> {
    let graph = dependency_graph(svc).map_err(fail)?;
    let mut by_approach = std::collections::BTreeMap::new();
    for info in graph.models.values() {
        *by_approach.entry(info.approach.abbrev()).or_insert(0usize) += 1;
    }
    let docs = svc.storage().doc_ids().map_err(fail)?.len();
    let mut out = String::new();
    writeln!(out, "models: {}", graph.models.len()).unwrap();
    for (a, n) in by_approach {
        writeln!(out, "  {a}: {n}").unwrap();
    }
    writeln!(out, "documents: {docs}").unwrap();
    writeln!(out, "leaves (deletable): {}", graph.leaves().len()).unwrap();
    Ok(out)
}
