//! The metric taxonomy: the complete dictionary of every metric name this
//! workspace can expose.
//!
//! Instrumented crates keep their own `const` for each name they emit, use
//! it at every emit site, and register every one of them in the crate's
//! single `register_metrics(&Recorder)`. The facade test
//! `tests/metric_taxonomy.rs` calls all of those on one fresh recorder and
//! holds the contract in both directions: every registered name is
//! declared here (snake_case), and every entry here is registered. A
//! scrape of any mmlib deployment therefore never shows a name this file
//! cannot explain.
//!
//! Naming follows Prometheus conventions: `mmlib_` prefix, snake_case,
//! and a unit suffix — `_total` (counters), `_seconds` (histograms),
//! `_bytes` (sizes folded into `_bytes_total` counters).

/// Metric kind, mirroring the Prometheus exposition `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter.
    Counter,
    /// Instantaneous `f64` level.
    Gauge,
    /// Bucketed `f64` observations.
    Histogram,
}

/// One taxonomy entry: a metric's name, kind, and help text.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Full metric name as registered (e.g. `mmlib_save_seconds`).
    pub name: &'static str,
    /// Exposition kind.
    pub kind: MetricKind,
    /// Human-readable description, suitable for a `# HELP` line.
    pub help: &'static str,
}

/// Every metric the workspace registers, sorted by name.
pub const TAXONOMY: &[MetricDef] = &[
    MetricDef {
        name: "mmlib_lineage_compactions_total",
        kind: MetricKind::Counter,
        help: "Delta-chain compaction runs completed.",
    },
    MetricDef {
        name: "mmlib_lineage_family_models_total",
        kind: MetricKind::Counter,
        help: "Models returned by batch family recoveries.",
    },
    MetricDef {
        name: "mmlib_lineage_family_recover_seconds",
        kind: MetricKind::Histogram,
        help: "Wall time of whole batch family recoveries.",
    },
    MetricDef {
        name: "mmlib_lineage_family_recovers_total",
        kind: MetricKind::Counter,
        help: "Batch family recovery calls.",
    },
    MetricDef {
        name: "mmlib_lineage_promoted_total",
        kind: MetricKind::Counter,
        help: "Chain nodes promoted to full snapshots by compaction.",
    },
    MetricDef {
        name: "mmlib_lineage_queries_total",
        kind: MetricKind::Counter,
        help: "Lineage queries served, labeled by query kind.",
    },
    MetricDef {
        name: "mmlib_net_bytes_in_total",
        kind: MetricKind::Counter,
        help: "Raw socket bytes received by the registry server.",
    },
    MetricDef {
        name: "mmlib_net_bytes_out_total",
        kind: MetricKind::Counter,
        help: "Raw socket bytes written to the wire by the registry server.",
    },
    MetricDef {
        name: "mmlib_net_connections_total",
        kind: MetricKind::Counter,
        help: "Connections the registry server admitted, each served on a thread of its own.",
    },
    MetricDef {
        name: "mmlib_net_inflight_requests",
        kind: MetricKind::Gauge,
        help: "Requests admitted by the registry server and not yet answered.",
    },
    MetricDef {
        name: "mmlib_net_load_shed_total",
        kind: MetricKind::Counter,
        help: "Connections the registry server refused with Busy because it already served \
               max_connections of them.",
    },
    MetricDef {
        name: "mmlib_net_pool_connections",
        kind: MetricKind::Gauge,
        help: "Pooled client connections currently open to registry servers.",
    },
    MetricDef {
        name: "mmlib_net_request_seconds",
        kind: MetricKind::Histogram,
        help: "Registry request service time, labeled by opcode name.",
    },
    MetricDef {
        name: "mmlib_net_requests_total",
        kind: MetricKind::Counter,
        help: "Registry requests served, labeled by opcode name.",
    },
    MetricDef {
        name: "mmlib_obs_registration_conflicts_total",
        kind: MetricKind::Counter,
        help: "Metric registrations rejected because the name already carries a \
               different kind; the caller got a detached handle.",
    },
    MetricDef {
        name: "mmlib_recover_phase_seconds",
        kind: MetricKind::Histogram,
        help: "Recover time per phase (load, decode, verify), labeled by phase.",
    },
    MetricDef {
        name: "mmlib_recover_seconds",
        kind: MetricKind::Histogram,
        help: "End-to-end model recover latency, labeled by approach.",
    },
    MetricDef {
        name: "mmlib_save_bytes_total",
        kind: MetricKind::Counter,
        help: "Bytes persisted by model saves, labeled by approach.",
    },
    MetricDef {
        name: "mmlib_save_phase_seconds",
        kind: MetricKind::Histogram,
        help: "Save time per phase (hash, diff, encode, persist), labeled by phase.",
    },
    MetricDef {
        name: "mmlib_save_seconds",
        kind: MetricKind::Histogram,
        help: "End-to-end model save latency, labeled by approach.",
    },
    MetricDef {
        name: "mmlib_store_bytes_read_total",
        kind: MetricKind::Counter,
        help: "Bytes read from the model store's backing storage.",
    },
    MetricDef {
        name: "mmlib_store_bytes_written_total",
        kind: MetricKind::Counter,
        help: "Bytes written to the model store's backing storage.",
    },
    MetricDef {
        name: "mmlib_store_ops_total",
        kind: MetricKind::Counter,
        help: "Model store operations, labeled by op (insert, get, remove, ...).",
    },
    MetricDef {
        name: "mmlib_store_sync_ops_total",
        kind: MetricKind::Counter,
        help: "Durability sync operations (payload fdatasync / directory fsync) issued by the store.",
    },
    MetricDef {
        name: "mmlib_tensor_hash_bytes_total",
        kind: MetricKind::Counter,
        help: "Tensor bytes hashed while building content addresses.",
    },
    MetricDef {
        name: "mmlib_tensor_hash_ops_total",
        kind: MetricKind::Counter,
        help: "Tensor hash operations performed.",
    },
    MetricDef {
        name: "mmlib_tensor_hash_parallel_fallback_total",
        kind: MetricKind::Counter,
        help: "Parallel digest maps recomputed serially after a worker panic.",
    },
    MetricDef {
        name: "mmlib_tensor_hash_parallel_ops_total",
        kind: MetricKind::Counter,
        help: "Tensor digests computed on the parallel hashing path.",
    },
];

/// Looks a metric name up in the taxonomy.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    TAXONOMY.iter().find(|d| d.name == name)
}

/// The `# HELP` line for a metric, when its name is in the taxonomy.
pub fn help_line(name: &str) -> Option<String> {
    lookup(name).map(|d| format!("# HELP {} {}", d.name, d.help))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_sorted_and_unique() {
        for pair in TAXONOMY.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "taxonomy must stay sorted and duplicate-free: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn names_follow_the_convention() {
        for def in TAXONOMY {
            assert!(def.name.starts_with("mmlib_"), "{} lacks the mmlib_ prefix", def.name);
            let suffix_ok = match def.kind {
                MetricKind::Counter => def.name.ends_with("_total"),
                MetricKind::Histogram => def.name.ends_with("_seconds"),
                MetricKind::Gauge => true,
            };
            assert!(suffix_ok, "{} has the wrong unit suffix for {:?}", def.name, def.kind);
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
        }
    }

    #[test]
    fn lookup_finds_declared_names() {
        assert!(lookup("mmlib_save_seconds").is_some());
        assert!(lookup("mmlib_not_a_metric_total").is_none());
        let help = help_line("mmlib_store_ops_total").unwrap();
        assert!(help.starts_with("# HELP mmlib_store_ops_total "));
    }
}
