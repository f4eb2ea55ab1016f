//! Model lineage: the version DAG over a store's saved models, and the
//! chain maintenance built on top of it.
//!
//! The paper's parameter-update approach materializes base→derived delta
//! chains, but leaves lineage implicit: ancestry lives scattered across
//! `model_info` base references, and recovery cost grows linearly with
//! chain depth. This crate makes lineage a first-class object, following
//! MGit's lineage-as-a-DAG abstraction and ModelHub's bounded version-graph
//! storage:
//!
//! * [`LineageGraph`] — the DAG over a store's `model_info` documents: each
//!   one names its base, approach, relation and Merkle root, plus the
//!   `tags` and `rebased_from` only lineage reads, so a saved model is its
//!   own lineage node. It lives in `mmlib_store::schema` (re-exported
//!   here), so the registry server answers remote lineage queries from the
//!   same graph;
//! * [`Lineage`] — the query/maintenance service: `show`, `ancestry`,
//!   `descendants`, `diff`, and `tag` queries;
//! * [`Lineage::compact`] — depth-bounded re-basing: rewrite a deep delta
//!   chain in one forward pass, promoting every `max_depth`-th node to a
//!   full snapshot so TTR stays flat as chains grow, with recovery kept
//!   byte-identical (every promotion is verified against the stored
//!   Merkle root before it commits);
//! * [`Lineage::recover_family`] — batch recovery of models sharing
//!   ancestry, fetching and rebuilding each shared ancestor exactly once.
//!
//! Neither of the last two walks base references itself: both list a chain
//! with `SaveService::recovery_chain` (one rule, one loop, one depth bound,
//! all in `mmlib-core`) and rebuild it with `SaveService::recover_step`.
//!
//! All operations report through the service's `mmlib-obs` recorder under
//! the `mmlib_lineage_*` metrics declared in the central taxonomy.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod compact;
mod family;

pub use compact::CompactReport;
pub use family::FamilyRecovery;
pub use mmlib_store::schema::{LineageGraph, LineageNode};

use mmlib_core::meta::SavedModelId;
use mmlib_core::{CoreError, SaveService};
use mmlib_obs::Recorder;

/// Counter of lineage queries served, labeled by query kind.
pub(crate) const QUERIES: &str = "mmlib_lineage_queries_total";
/// Counter of compaction runs.
pub(crate) const COMPACTIONS: &str = "mmlib_lineage_compactions_total";
/// Counter of chain nodes promoted to snapshots by compaction.
pub(crate) const PROMOTED: &str = "mmlib_lineage_promoted_total";
/// Counter of batch family recoveries.
pub(crate) const FAMILY_RECOVERS: &str = "mmlib_lineage_family_recovers_total";
/// Counter of models returned by family recoveries.
pub(crate) const FAMILY_MODELS: &str = "mmlib_lineage_family_models_total";
/// Histogram of whole family-recovery wall time.
pub(crate) const FAMILY_SECONDS: &str = "mmlib_lineage_family_recover_seconds";

/// The query kinds [`QUERIES`] is labeled with.
pub const QUERY_KINDS: [&str; 4] = ["show", "ancestry", "descendants", "diff"];

/// Pre-registers every lineage metric on `recorder`, so expositions list
/// the full lineage taxonomy (with zero counts) before any query runs.
pub fn register_metrics(recorder: &Recorder) {
    for kind in QUERY_KINDS {
        recorder.counter(QUERIES, Some(("kind", kind)));
    }
    recorder.counter(COMPACTIONS, None);
    recorder.counter(PROMOTED, None);
    recorder.counter(FAMILY_RECOVERS, None);
    recorder.counter(FAMILY_MODELS, None);
    recorder.histogram(FAMILY_SECONDS, None, &mmlib_obs::DURATION_BUCKETS);
}

/// The lineage service: queries and chain maintenance over one store,
/// borrowed from the [`SaveService`] that owns it.
pub struct Lineage<'a> {
    svc: &'a SaveService,
}

impl<'a> Lineage<'a> {
    /// Creates a lineage service over `svc`'s store. Metrics go to the
    /// same recorder the save service reports to.
    pub fn new(svc: &'a SaveService) -> Lineage<'a> {
        Lineage { svc }
    }

    pub(crate) fn svc(&self) -> &SaveService {
        self.svc
    }

    pub(crate) fn obs(&self) -> &Recorder {
        self.svc.recorder()
    }

    /// Reads the store's lineage DAG ([`LineageGraph::read`]).
    pub fn graph(&self) -> Result<LineageGraph, CoreError> {
        Ok(LineageGraph::read(self.svc.storage())?)
    }

    /// One model's lineage node.
    pub fn show(&self, id: &SavedModelId) -> Result<LineageNode, CoreError> {
        self.obs().inc_labeled(QUERIES, ("kind", "show"), 1);
        Ok(self.graph()?.require(id)?.clone())
    }

    /// The model's ancestry, from itself up to its root, following live
    /// `parent` edges (compacted nodes are ancestry roots; their original
    /// parent remains visible as `rebased_from`).
    pub fn ancestry(&self, id: &SavedModelId) -> Result<Vec<LineageNode>, CoreError> {
        self.obs().inc_labeled(QUERIES, ("kind", "ancestry"), 1);
        let graph = self.graph()?;
        Ok(graph.ancestry_of(id)?.into_iter().cloned().collect())
    }

    /// Every model derived from `id`, transitively (breadth-first).
    pub fn descendants(&self, id: &SavedModelId) -> Result<Vec<LineageNode>, CoreError> {
        self.obs().inc_labeled(QUERIES, ("kind", "descendants"), 1);
        let graph = self.graph()?;
        graph.require(id)?;
        Ok(graph.descendants_of(id).into_iter().cloned().collect())
    }

    /// Layer-level diff between two saved versions, computed from their
    /// stored Merkle trees — no parameters are loaded.
    pub fn diff(&self, a: &SavedModelId, b: &SavedModelId) -> Result<LineageDiff, CoreError> {
        self.obs().inc_labeled(QUERIES, ("kind", "diff"), 1);
        let tree_a = self.layer_digests(a)?;
        let tree_b = self.layer_digests(b)?;
        let mut changed: Vec<String> = tree_a
            .iter()
            .filter(|(layer, digest)| tree_b.get(*layer) != Some(digest))
            .map(|(layer, _)| layer.clone())
            .collect();
        for layer in tree_b.keys() {
            if !tree_a.contains_key(layer) {
                changed.push(layer.clone());
            }
        }
        changed.sort();
        changed.dedup();

        // Lowest common ancestor over live parent edges.
        let graph = self.graph()?;
        let up_a: Vec<String> =
            graph.ancestry_of(a)?.iter().map(|n| n.id.to_string()).collect();
        let common_ancestor = graph
            .ancestry_of(b)?
            .iter()
            .find(|n| up_a.contains(&n.id.to_string()))
            .map(|n| n.id.clone());

        Ok(LineageDiff {
            a: a.clone(),
            b: b.clone(),
            total_layers: tree_a.len().max(tree_b.len()),
            changed_layers: changed,
            common_ancestor,
        })
    }

    /// Attaches a tag to a model (idempotent): one read and one update of
    /// its model-info document.
    pub fn tag(&self, id: &SavedModelId, tag: &str) -> Result<LineageNode, CoreError> {
        let mut info = self.svc.load_model_info(id)?;
        if !info.tags.iter().any(|t| t == tag) {
            info.tags.push(tag.to_string());
            self.svc.update_model_info(id, &info)?;
        }
        Ok(LineageNode { id: id.clone(), record: info.lineage_view(id) })
    }

    /// All layer digests of a saved model, from the layer hashes its
    /// model-info document holds, checked against its root hash.
    fn layer_digests(
        &self,
        id: &SavedModelId,
    ) -> Result<std::collections::BTreeMap<String, String>, CoreError> {
        let info = self.svc.load_model_info(id)?;
        let tree = SaveService::load_layer_hashes(&info, id)?;
        Ok(tree
            .leaves()
            .map(|(path, digest)| (path.to_string(), digest.to_hex()))
            .collect())
    }
}

/// Layer-level difference between two saved versions.
#[derive(Debug, Clone)]
pub struct LineageDiff {
    /// First version compared.
    pub a: SavedModelId,
    /// Second version compared.
    pub b: SavedModelId,
    /// Layer count of the larger of the two models.
    pub total_layers: usize,
    /// Layers whose digests differ (or exist on only one side), sorted.
    pub changed_layers: Vec<String>,
    /// Lowest ancestor shared by both versions over live parent edges.
    pub common_ancestor: Option<SavedModelId>,
}
