//! The document schema of a model store, and the lineage graph over it.
//!
//! Paper §3.1: metadata lives in JSON documents organized hierarchically —
//! a model-info document references an environment document, a layer-hash
//! document, stored files, its base model, and (for the provenance
//! approach) the wrapped training objects. Whether that base is what the
//! model is *recovered from* is [`ModelInfoDoc::recovery_parent`]'s call,
//! and only its; what the model *references* is
//! [`ModelInfoDoc::references`]'s.
//!
//! The types live here, below both sides of the wire, so that the model
//! library (which saves and recovers through them), the lineage queries and
//! the registry server read a document the same way. A model-info document
//! is also the model's lineage node: it names the base, approach, relation
//! and Merkle root, and carries the two fields only lineage needs (`tags`,
//! `rebased_from`). [`LineageGraph::read`] is the one builder of lineage
//! nodes: `mmlib lineage` in-process and the server's `LineageGet` /
//! `LineageAncestry` answer from the same graph.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DocId, Document, FileId, ModelStorage, StoreError};

/// Identifier of a saved model — the id of its model-info document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SavedModelId(pub DocId);

impl SavedModelId {
    /// The underlying document id.
    pub fn doc_id(&self) -> &DocId {
        &self.0
    }
}

impl fmt::Display for SavedModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Which save approach produced a model document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ApproachKind {
    /// Baseline: complete independent snapshot (§3.1).
    Baseline,
    /// Parameter update: base reference + changed layers (§3.2).
    ParamUpdate,
    /// Model provenance: base reference + training provenance (§3.3).
    Provenance,
}

impl ApproachKind {
    /// All approaches in paper order.
    pub fn all() -> [ApproachKind; 3] {
        [ApproachKind::Baseline, ApproachKind::ParamUpdate, ApproachKind::Provenance]
    }

    /// The paper's abbreviation (BA / PUA / MPA).
    pub fn abbrev(self) -> &'static str {
        match self {
            ApproachKind::Baseline => "BA",
            ApproachKind::ParamUpdate => "PUA",
            ApproachKind::Provenance => "MPA",
        }
    }
}

impl fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// How a model relates to its base (paper §2.1 / Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ModelRelation {
    /// No base model (the U1 initial model).
    Initial,
    /// Same architecture, all parameters retrained.
    FullyUpdated,
    /// Same architecture, only a trainable subset (the classifier) retrained.
    PartiallyUpdated,
}

/// Reference to a training dataset inside a provenance document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRef {
    /// Table 1 short name (`"CF-512"` ...).
    pub name: String,
    /// Byte-size scale factor the dataset was materialized with.
    pub scale: f64,
    /// The stored single-file container, or `None` when the dataset is
    /// managed externally (paper §3.3, "Managing Data sets": then only the
    /// reference is saved).
    pub container_file: Option<String>,
    /// SHA-256 over the dataset content (identity + all blobs).
    pub content_digest: String,
}

/// The body of a `model_info` document — one per saved model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfoDoc {
    /// The approach that saved this model.
    pub approach: ApproachKind,
    /// Architecture name (`mmlib_model::ArchId::name`).
    pub arch: String,
    /// Relation to the base model.
    pub relation: ModelRelation,
    /// Base model-info document id, absent for initial models.
    pub base_model: Option<String>,
    /// Environment document id.
    pub environment_doc: String,
    /// Architecture-code file id (full snapshots only; derived models
    /// reference the base's code through the chain).
    pub code_file: Option<String>,
    /// Serialized parameters: the full state dict (baseline) or the pruned
    /// parameter update (param-update). Absent for provenance saves.
    pub weights_file: Option<String>,
    /// Encoding of the weights file: `None`/`"state_dict"` for the plain
    /// binary state dict, `"delta_v1"` for the XOR-delta compressed update
    /// (the storage-extension codec in `mmlib-compress`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub update_encoding: Option<String>,
    /// The layers a parameter update's weights file holds (the save's
    /// Merkle diff). Recovery applies only the updates that still own a
    /// layer no later update rewrites, and checks each file it applies
    /// against this list. Absent for snapshots, provenance saves and
    /// updates saved before the list existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub update_layers: Option<Vec<String>>,
    /// Layer-hash (Merkle) document id.
    pub layer_hash_doc: String,
    /// Merkle root over the model's layer hashes (hex) — the recovery
    /// checksum of §3.1.
    pub root_hash: String,
    /// Train-service wrapper document id (provenance saves only).
    pub train_doc: Option<String>,
    /// Training dataset reference (provenance saves only).
    pub dataset: Option<DatasetRef>,
    /// Free-form labels attached via `mmlib lineage tag`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tags: Vec<String>,
    /// The base this model was saved on, kept after compaction promoted it
    /// to a snapshot and cleared `base_model`: where the version came from,
    /// never a recovery or ownership edge.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rebased_from: Option<String>,
}

impl ModelInfoDoc {
    /// The lineage node this document describes for model `id`: its base
    /// is the parent edge, and a parameter update's `update_layers` count
    /// as its changed layers.
    pub fn lineage_view(&self, id: &SavedModelId) -> LineageRecordDoc {
        LineageRecordDoc {
            model: id.to_string(),
            parent: self.base_model.clone(),
            approach: self.approach,
            relation: self.relation,
            root_hash: self.root_hash.clone(),
            changed_layers: self.update_layers.as_ref().map(Vec::len),
            tags: self.tags.clone(),
            rebased_from: self.rebased_from.clone(),
        }
    }

    /// The model this one is rebuilt on, if any — the one rule every chain
    /// walk follows. A snapshot is self-contained: the base it may record
    /// is lineage metadata only, never a recovery dependency. A parameter
    /// update or provenance save is rebuilt on its `base_model`; `None` for
    /// one of those means the document is malformed, which
    /// `SaveService::recovery_chain` reports.
    pub fn recovery_parent(&self) -> Option<SavedModelId> {
        match self.approach {
            ApproachKind::Baseline => None,
            ApproachKind::ParamUpdate | ApproachKind::Provenance => {
                self.base_model.as_ref().map(|b| SavedModelId(DocId::from_string(b.clone())))
            }
        }
    }

    /// Everything this model document references, each with its role — the
    /// one ownership rule fsck, deletion and GC share: environment, layer
    /// hashes and base model; for a provenance save the wrapper tree (the
    /// train-service wrapper and every wrapper its `ref_args` reach,
    /// transitively, each with its `state_file`); then architecture code,
    /// weights and dataset container. The model owns all of it except the
    /// [`BASE_MODEL`], a saved model of its own.
    ///
    /// `docs` supplies the wrapper bodies; a wrapper it lacks is still
    /// listed, but what that wrapper references cannot be.
    pub fn references(&self, docs: &BTreeMap<DocId, Document>) -> Vec<(Ref, &'static str)> {
        let doc = |id: &str, role| (Ref::Doc(DocId::from_string(id.to_string())), role);
        let file = |id: &str, role| (Ref::File(FileId::from_string(id.to_string())), role);
        let mut out = vec![
            doc(&self.environment_doc, ENVIRONMENT),
            doc(&self.layer_hash_doc, LAYER_HASH),
        ];
        if let Some(base) = &self.base_model {
            out.push(doc(base, BASE_MODEL));
        }
        let mut queue: Vec<&str> = self.train_doc.iter().map(String::as_str).collect();
        let mut seen = BTreeSet::new();
        while let Some(wid) = queue.pop() {
            if !seen.insert(wid) {
                continue;
            }
            out.push(doc(wid, WRAPPER));
            let Some(wrapper) = docs.get(&DocId::from_string(wid.to_string())) else { continue };
            if let Some(refs) = wrapper.body["ref_args"].as_object() {
                queue.extend(refs.values().filter_map(|v| v.as_str()));
            }
            if let Some(state) = wrapper.body["state_file"].as_str() {
                out.push(file(state, "wrapper-state"));
            }
        }
        if let Some(f) = &self.code_file {
            out.push(file(f, "architecture-code"));
        }
        if let Some(f) = &self.weights_file {
            out.push(file(f, "weights"));
        }
        if let Some(f) = self.dataset.as_ref().and_then(|d| d.container_file.as_ref()) {
            out.push(file(f, "dataset-container"));
        }
        out
    }
}

/// The role [`ModelInfoDoc::references`] gives a model's base: the one
/// reference the model does not own.
pub const BASE_MODEL: &str = "base-model";
/// The role of a model's environment document.
const ENVIRONMENT: &str = "environment";
/// The role of a model's layer-hash document.
const LAYER_HASH: &str = "layer-hash";
/// The role of a wrapper document in a provenance save's wrapper tree.
const WRAPPER: &str = "wrapper";

/// The target of one [`ModelInfoDoc::references`] entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ref {
    /// A document.
    Doc(DocId),
    /// A blob.
    File(FileId),
}

/// Why a document is not a readable model-info document.
#[derive(Debug, Clone, PartialEq)]
pub enum NotModelInfo {
    /// The document is of another kind.
    WrongKind(String),
    /// The body does not decode as a [`ModelInfoDoc`].
    Undecodable(String),
}

impl fmt::Display for NotModelInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotModelInfo::WrongKind(kind) => {
                write!(f, "document kind is {kind:?}, expected {}", kinds::MODEL_INFO)
            }
            NotModelInfo::Undecodable(e) => write!(f, "undecodable body: {e}"),
        }
    }
}

/// Decodes a model-info document.
pub fn model_info(doc: Document) -> Result<ModelInfoDoc, NotModelInfo> {
    if doc.kind != kinds::MODEL_INFO {
        return Err(NotModelInfo::WrongKind(doc.kind));
    }
    serde_json::from_value(doc.body).map_err(|e| NotModelInfo::Undecodable(e.to_string()))
}

/// How a [`walk_chain`] ended.
#[derive(Debug)]
pub enum WalkEnd {
    /// At a snapshot, or before a model the caller holds: the chain is
    /// whole.
    Complete,
    /// `limit + 1` links were read and the chain goes on at this model,
    /// whose document was not read (a cycle, or corruption).
    Limit(SavedModelId),
    /// This model's document could not be read: it is missing, or the read
    /// failed.
    Unreadable(SavedModelId, StoreError),
    /// This model's document is not a model-info document.
    Bad(SavedModelId, NotModelInfo),
    /// This model is a derived save that names no base.
    NoBase(SavedModelId, ApproachKind),
}

/// The links a [`walk_chain`] read, tip first, and how it ended.
#[derive(Debug)]
pub struct ChainWalk {
    /// Each model with its decoded model-info document, tip first.
    pub links: Vec<(SavedModelId, ModelInfoDoc)>,
    /// Why the walk stopped where it did.
    pub end: WalkEnd,
}

/// Walks the recovery chain of `tip`, following
/// [`ModelInfoDoc::recovery_parent`] down to the first snapshot, or ending
/// before the first id `have` accepts, for a caller that already holds that
/// model. `read` fetches a document; only model-info documents are read,
/// each once.
///
/// This is the only loop that follows base references through a store,
/// and `limit` is its only guard: a chain with more than `limit` bases ends
/// in [`WalkEnd::Limit`] after `limit + 1` reads. A loop, not recursion, so
/// a chain at the bound costs heap rather than stack per link. The
/// recovery (`SaveService::recovery_chain`) turns an abnormal end into its
/// error; the registry server ([`recovery_reads`]) just stops there.
pub fn walk_chain(
    mut read: impl FnMut(&DocId) -> Result<Document, StoreError>,
    tip: &SavedModelId,
    limit: usize,
    have: impl Fn(&SavedModelId) -> bool,
) -> ChainWalk {
    let mut links = Vec::new();
    let mut next = Some(tip.clone());
    let end = loop {
        let Some(id) = next.filter(|id| !have(id)) else { break WalkEnd::Complete };
        if links.len() > limit {
            break WalkEnd::Limit(id);
        }
        let info = match read(id.doc_id()).map(model_info) {
            Ok(Ok(info)) => info,
            Ok(Err(bad)) => break WalkEnd::Bad(id, bad),
            Err(e) => break WalkEnd::Unreadable(id, e),
        };
        next = info.recovery_parent();
        if next.is_none() && info.approach != ApproachKind::Baseline {
            break WalkEnd::NoBase(id, info.approach);
        }
        links.push((id, info));
    };
    ChainWalk { links, end }
}

/// The layers of a plain (state-dict) parameter update, as its document
/// lists them; `None` for every other link and for a list-less update.
fn plain_update_layers(info: &ModelInfoDoc) -> Option<&[String]> {
    match (info.approach, info.update_encoding.as_deref()) {
        (ApproachKind::ParamUpdate, None | Some("state_dict")) => info.update_layers.as_deref(),
        _ => None,
    }
}

/// Which links of a recovery chain (tip first, as [`walk_chain`] reads it)
/// a recovery of its tip must rebuild, in the same order. Walking down from
/// the tip with the set of layers later links already settle, a plain
/// parameter update is needed only if it owns a layer outside that set; its
/// layers then join the set. Every other link is a barrier, always rebuilt,
/// below which nothing is settled: a snapshot is the root, and a training
/// replay, an XOR-delta decode or an update of unknown layers needs its
/// exact base.
pub fn links_to_rebuild(chain: &[(SavedModelId, ModelInfoDoc)]) -> Vec<bool> {
    let mut settled: BTreeSet<&str> = BTreeSet::new();
    chain
        .iter()
        .map(|(_, info)| match plain_update_layers(info) {
            Some(layers) => {
                let owns_a_layer = layers.iter().any(|l| !settled.contains(l.as_str()));
                settled.extend(layers.iter().map(String::as_str));
                owns_a_layer
            }
            None => {
                settled.clear();
                true
            }
        })
        .collect()
}

/// The documents and files one tip recovery reads, read ahead of it by
/// [`recovery_reads`], each list in the order the recovery reads it.
#[derive(Debug, Default)]
pub struct RecoveryReads {
    /// Documents, each once: the chain's model-info documents tip first,
    /// then, with the environment check, every link's environment document,
    /// then the wrapper documents of the links the plan rebuilds.
    pub docs: Vec<Document>,
    /// The files of the links the plan rebuilds, snapshot first.
    pub files: Vec<(FileId, Vec<u8>)>,
}

/// The one definition of what a recovery of `tip` reads, read here, next to
/// the data: every link's model-info document ([`walk_chain`] with `limit`);
/// with `check_env`, every link's environment document; and for each link
/// [`links_to_rebuild`] keeps, its [`ModelInfoDoc::references`] except the
/// base model, the layer hashes and the environment: the code, the weights,
/// the wrapper tree with its state files, and the dataset container.
/// Wrappers are read until the list stops growing.
///
/// Never an error: the set ends at the first read that fails, and after the
/// model-info documents when the walk ends abnormally. A recovery that
/// misses an item reads it itself and meets the failure there. A document
/// read more than once (a cyclic chain's) is in the set once.
pub fn recovery_reads(
    storage: &ModelStorage,
    tip: &SavedModelId,
    limit: usize,
    check_env: bool,
) -> RecoveryReads {
    let mut reads = RecoveryReads::default();
    let read = |id: &DocId| {
        let doc = storage.get_doc(id)?;
        reads.docs.push(doc.clone());
        Ok(doc)
    };
    let walk = walk_chain(read, tip, limit, |_| false);
    if matches!(walk.end, WalkEnd::Complete) {
        // An error here is where the recovery will fail too.
        let _ = read_links(storage, &walk.links, check_env, &mut reads);
    }
    // A cyclic chain reads the same documents until the limit: keep each
    // once, where it was first read.
    let mut seen = BTreeSet::new();
    reads.docs.retain(|doc| seen.insert(doc.id.clone()));
    reads
}

/// The part of [`recovery_reads`] after the walk.
fn read_links(
    storage: &ModelStorage,
    links: &[(SavedModelId, ModelInfoDoc)],
    check_env: bool,
    reads: &mut RecoveryReads,
) -> Result<(), StoreError> {
    if check_env {
        for (_, info) in links {
            reads.docs.push(storage.get_doc(&DocId::from_string(info.environment_doc.clone()))?);
        }
    }
    let plan = links_to_rebuild(links);
    for ((_, info), _) in links.iter().zip(plan).rev().filter(|(_, rebuild)| *rebuild) {
        let mut wrappers: BTreeMap<DocId, Document> = BTreeMap::new();
        loop {
            let unread: Vec<DocId> = info
                .references(&wrappers)
                .into_iter()
                .filter_map(|(target, role)| match target {
                    Ref::Doc(id) if role == WRAPPER && !wrappers.contains_key(&id) => Some(id),
                    _ => None,
                })
                .collect();
            if unread.is_empty() {
                break;
            }
            for id in unread {
                let doc = storage.get_doc(&id)?;
                reads.docs.push(doc.clone());
                wrappers.insert(id, doc);
            }
        }
        for (target, _) in info.references(&wrappers) {
            if let Ref::File(id) = target {
                let bytes = storage.get_file(&id)?;
                reads.files.push((id, bytes));
            }
        }
    }
    Ok(())
}

/// One model's lineage node as the lineage queries and the wire report it:
/// a view of its model-info document, built by
/// [`ModelInfoDoc::lineage_view`] and never stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineageRecordDoc {
    /// The model-info document id this record describes.
    pub model: String,
    /// The model's `base_model`: `None` for roots and for versions
    /// compaction promoted to snapshots.
    pub parent: Option<String>,
    /// The approach that saved this version.
    pub approach: ApproachKind,
    /// Relation to the parent.
    pub relation: ModelRelation,
    /// Merkle root of this version (hex) — joins the lineage node to the
    /// model's content identity.
    pub root_hash: String,
    /// Number of layers that differed from the parent at save time
    /// (parameter updates only, until compaction promotes them).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub changed_layers: Option<usize>,
    /// Free-form labels attached via `mmlib lineage tag`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tags: Vec<String>,
    /// The original parent id, kept after compaction cut the edge.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rebased_from: Option<String>,
}

/// Document kinds used by mmlib.
pub mod kinds {
    /// Model-info documents.
    pub const MODEL_INFO: &str = "model_info";
    /// Environment captures.
    pub const ENVIRONMENT: &str = "environment";
    /// Layer-hash (Merkle) documents.
    pub const LAYER_HASHES: &str = "layer_hashes";
    /// Wrapper objects (train service, dataloader, optimizer).
    pub const WRAPPER: &str = "wrapper";
}

/// One node of the lineage DAG: a saved model version and its record.
#[derive(Debug, Clone)]
pub struct LineageNode {
    /// The saved model this node describes.
    pub id: SavedModelId,
    /// The model's lineage view (derivation edge, diff provenance, tags).
    pub record: LineageRecordDoc,
}

/// The lineage DAG over one store's saved models: one node per model-info
/// document, with an edge from each model to its base.
#[derive(Debug, Default)]
pub struct LineageGraph {
    nodes: BTreeMap<String, LineageNode>,
    children: BTreeMap<String, Vec<String>>,
}

impl LineageGraph {
    /// Reads the store and builds the DAG: `doc_ids`, then one `get_doc`
    /// per document, keeping one node per model-info document. A document
    /// that cannot be read fails the read, and so does a model-info body
    /// that does not decode ([`StoreError::Malformed`]).
    pub fn read(storage: &ModelStorage) -> Result<LineageGraph, StoreError> {
        let mut nodes: BTreeMap<String, LineageNode> = BTreeMap::new();
        for id in storage.doc_ids()? {
            let doc = storage.get_doc(&id)?;
            if doc.kind == kinds::MODEL_INFO {
                let info: ModelInfoDoc = decode(&id, doc.body)?;
                let id = SavedModelId(id);
                let record = info.lineage_view(&id);
                nodes.insert(id.to_string(), LineageNode { id, record });
            }
        }
        let mut children: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (model, node) in &nodes {
            // Edges into missing models are dropped (fsck reports the
            // dangling reference); edges between live models are kept.
            if let Some(parent) = node.record.parent.as_ref().filter(|p| nodes.contains_key(*p)) {
                children.entry(parent.clone()).or_default().push(model.clone());
            }
        }
        Ok(LineageGraph { nodes, children })
    }

    /// Number of nodes (= saved models).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the store has no saved models.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, ordered by model id.
    pub fn nodes(&self) -> impl Iterator<Item = &LineageNode> {
        self.nodes.values()
    }

    /// The node for `id`, when the model exists.
    pub fn node(&self, id: &SavedModelId) -> Option<&LineageNode> {
        self.nodes.get(id.doc_id().as_str())
    }

    /// The node for `id`, or [`StoreError::MissingDocument`] naming a model
    /// the store does not hold.
    pub fn require(&self, id: &SavedModelId) -> Result<&LineageNode, StoreError> {
        self.node(id).ok_or_else(|| StoreError::MissingDocument(id.doc_id().clone()))
    }

    /// Nodes with no live parent edge (chain roots and compacted nodes).
    pub fn roots(&self) -> Vec<&LineageNode> {
        self.nodes.values().filter(|n| n.record.parent.is_none()).collect()
    }

    /// Direct children of `id`, ordered by model id.
    pub fn children_of(&self, id: &SavedModelId) -> Vec<&LineageNode> {
        self.children
            .get(id.doc_id().as_str())
            .map(|c| c.iter().filter_map(|m| self.nodes.get(m)).collect())
            .unwrap_or_default()
    }

    /// Ancestry from `id` (inclusive) to its root over live parent edges.
    /// Fails on a cyclic parent chain (corruption, [`StoreError::Malformed`])
    /// rather than looping.
    pub fn ancestry_of(&self, id: &SavedModelId) -> Result<Vec<&LineageNode>, StoreError> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut cur = self.require(id)?;
        loop {
            if !seen.insert(cur.id.to_string()) {
                return Err(StoreError::Malformed(format!(
                    "cyclic lineage of {id} at {}",
                    cur.id
                )));
            }
            out.push(cur);
            match &cur.record.parent {
                Some(parent) => match self.nodes.get(parent) {
                    Some(next) => cur = next,
                    // Dangling parent: the ancestry ends here; fsck
                    // reports the broken edge.
                    None => break,
                },
                None => break,
            }
        }
        Ok(out)
    }

    /// Every transitive descendant of `id`, breadth-first, ordered by
    /// distance then model id. `id` itself is not included.
    pub fn descendants_of(&self, id: &SavedModelId) -> Vec<&LineageNode> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        queue.push_back(id.doc_id().as_str().to_string());
        seen.insert(id.doc_id().as_str().to_string());
        while let Some(cur) = queue.pop_front() {
            if let Some(children) = self.children.get(&cur) {
                for child in children {
                    if seen.insert(child.clone()) {
                        if let Some(node) = self.nodes.get(child) {
                            out.push(node);
                        }
                        queue.push_back(child.clone());
                    }
                }
            }
        }
        out
    }
}

/// Decodes a document body into its kind's schema; a body that does not
/// decode is [`StoreError::Malformed`], naming the document.
fn decode<T: Deserialize>(id: &DocId, body: serde_json::Value) -> Result<T, StoreError> {
    serde_json::from_value(body)
        .map_err(|e| StoreError::Malformed(format!("undecodable document {id}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approach_abbrevs_match_paper() {
        assert_eq!(ApproachKind::Baseline.abbrev(), "BA");
        assert_eq!(ApproachKind::ParamUpdate.abbrev(), "PUA");
        assert_eq!(ApproachKind::Provenance.abbrev(), "MPA");
    }

    fn info_doc(approach: ApproachKind, base_model: Option<&str>) -> ModelInfoDoc {
        ModelInfoDoc {
            approach,
            arch: "resnet152".into(),
            relation: ModelRelation::PartiallyUpdated,
            base_model: base_model.map(String::from),
            environment_doc: "abc-2".into(),
            code_file: None,
            weights_file: Some("f-1".into()),
            update_encoding: None,
            update_layers: None,
            layer_hash_doc: "abc-3".into(),
            root_hash: "00".repeat(32),
            train_doc: None,
            dataset: None,
            tags: Vec::new(),
            rebased_from: None,
        }
    }

    #[test]
    fn recovery_parent_is_the_base_unless_the_model_is_a_snapshot() {
        let base = SavedModelId(DocId::from_string("abc-1".into()));
        // A snapshot's recorded base is lineage metadata, not a dependency.
        assert_eq!(info_doc(ApproachKind::Baseline, Some("abc-1")).recovery_parent(), None);
        assert_eq!(info_doc(ApproachKind::Baseline, None).recovery_parent(), None);
        for derived in [ApproachKind::ParamUpdate, ApproachKind::Provenance] {
            assert_eq!(info_doc(derived, Some("abc-1")).recovery_parent(), Some(base.clone()));
            // Malformed; `recovery_chain` reports it (recovery_errors.rs).
            assert_eq!(info_doc(derived, None).recovery_parent(), None);
        }
    }

    #[test]
    fn model_info_doc_serde_round_trip() {
        let doc = info_doc(ApproachKind::ParamUpdate, Some("abc-1"));
        let json = serde_json::to_value(&doc).unwrap();
        assert_eq!(json["approach"], "param_update");
        assert_eq!(json["relation"], "partially_updated");
        let back: ModelInfoDoc = serde_json::from_value(json).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn tags_and_rebased_from_round_trip_and_stay_absent_when_empty() {
        let plain = info_doc(ApproachKind::ParamUpdate, Some("abc-1"));
        let json = serde_json::to_value(&plain).unwrap();
        assert!(json.get("tags").is_none(), "empty tags stay absent");
        assert!(json.get("rebased_from").is_none(), "None stays absent");

        let mut doc = plain;
        doc.tags = vec!["v2".into(), "best".into()];
        doc.rebased_from = Some("abc-0".into());
        let json = serde_json::to_value(&doc).unwrap();
        assert_eq!(json["tags"], serde_json::json!(["v2", "best"]));
        assert_eq!(json["rebased_from"], "abc-0");
        let back: ModelInfoDoc = serde_json::from_value(json).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn the_lineage_record_is_a_view_of_the_model_info() {
        let id = SavedModelId(DocId::from_string("m-2".into()));
        let mut doc = info_doc(ApproachKind::ParamUpdate, Some("m-1"));
        doc.update_layers = Some(vec!["fc.weight".into(), "fc.bias".into()]);
        doc.tags = vec!["v2".into()];
        let record = doc.lineage_view(&id);
        assert_eq!(
            record,
            LineageRecordDoc {
                model: "m-2".into(),
                parent: Some("m-1".into()),
                approach: ApproachKind::ParamUpdate,
                relation: ModelRelation::PartiallyUpdated,
                root_hash: doc.root_hash.clone(),
                changed_layers: Some(2),
                tags: vec!["v2".into()],
                rebased_from: None,
            }
        );
        let snapshot = info_doc(ApproachKind::Baseline, None).lineage_view(&id);
        assert_eq!((snapshot.parent, snapshot.changed_layers), (None, None));
    }
}
