//! The document schema of a model store, and the lineage graph over it.
//!
//! Paper §3.1: metadata lives in JSON documents that reference each other
//! by id. Here a saved model is one model-info document, which holds its
//! environment, its layer hashes (the leaves of its Merkle tree, §3.2) and,
//! for the provenance approach, its wrapped training objects inline, and
//! references stored files and its base model. Whether that base is what
//! the model is *recovered from* is [`ModelInfoDoc::recovery_parent`]'s
//! call, and only its; what the model *references* is
//! [`ModelInfoDoc::references`]'s. No decode here folds the layer hashes
//! into a tree: the chain walks need none.
//!
//! The types live here, below both sides of the wire, so that the model
//! library (which saves and recovers through them), the lineage queries and
//! the registry server read a document the same way. A model-info document
//! is also the model's lineage node: it names the base, approach, relation
//! and Merkle root, and carries the two fields only lineage needs (`tags`,
//! `rebased_from`). [`LineageGraph::read`] is the one builder of lineage
//! nodes: `mmlib lineage` in-process and the server's `LineageGet` /
//! `LineageAncestry` answer from the same graph.
//! Bodies come from disk or a peer: no index, no unchecked arithmetic.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use mmlib_tensor::hash::Digest;
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

/// Reference to a training dataset inside a provenance record.
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

/// A captured execution environment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvironmentInfo {
    /// mmlib's own version (the "framework version").
    pub mmlib_version: String,
    /// Compiler the library was built with (stands in for the interpreter).
    pub rustc_semver: String,
    /// Third-party library versions linked into the substrate.
    pub libraries: Vec<(String, String)>,
    /// OS type (e.g. `Linux`).
    pub os_type: String,
    /// Kernel release (e.g. `6.18.5`).
    pub kernel_release: String,
    /// Machine hostname.
    pub hostname: String,
    /// CPU model string.
    pub cpu_model: String,
    /// Logical CPU count.
    pub cpu_count: usize,
    /// Total memory in kilobytes.
    pub total_memory_kb: u64,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in cpuinfo.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, v)) = rest.split_once(':') {
                    return v.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

fn total_memory_kb() -> u64 {
    if let Ok(meminfo) = std::fs::read_to_string("/proc/meminfo") {
        for line in meminfo.lines() {
            if let Some(rest) = line.strip_prefix("MemTotal:") {
                if let Some(kb) = rest.split_whitespace().next() {
                    return kb.parse().unwrap_or(0);
                }
            }
        }
    }
    0
}

impl EnvironmentInfo {
    /// Captures the current environment by querying the OS and the build.
    pub fn capture() -> EnvironmentInfo {
        EnvironmentInfo {
            mmlib_version: env!("CARGO_PKG_VERSION").to_string(),
            rustc_semver: rustc_version_string(),
            libraries: vec![
                ("mmlib-tensor".into(), env!("CARGO_PKG_VERSION").into()),
                ("mmlib-model".into(), env!("CARGO_PKG_VERSION").into()),
                ("mmlib-train".into(), env!("CARGO_PKG_VERSION").into()),
                ("mmlib-data".into(), env!("CARGO_PKG_VERSION").into()),
            ],
            os_type: read_trimmed("/proc/sys/kernel/ostype")
                .unwrap_or_else(|| std::env::consts::OS.to_string()),
            kernel_release: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default(),
            hostname: read_trimmed("/proc/sys/kernel/hostname").unwrap_or_default(),
            cpu_model: cpu_model(),
            cpu_count: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            total_memory_kb: total_memory_kb(),
        }
    }

    /// Compares a saved environment against the current one.
    ///
    /// Returns the list of mismatching fields, empty when the environments
    /// are *compatible* for exact reproduction. Hostname and memory size are
    /// reported informationally but do **not** count as mismatches: the
    /// paper explicitly recovers models "identically ... on another
    /// machine" of the same hardware/software configuration.
    pub fn mismatches_against(&self, current: &EnvironmentInfo) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |field: &str, a: &str, b: &str| {
            if a != b {
                out.push(format!("{field}: saved={a:?} current={b:?}"));
            }
        };
        check("mmlib_version", &self.mmlib_version, &current.mmlib_version);
        check("rustc_semver", &self.rustc_semver, &current.rustc_semver);
        check("os_type", &self.os_type, &current.os_type);
        check("kernel_release", &self.kernel_release, &current.kernel_release);
        check("cpu_model", &self.cpu_model, &current.cpu_model);
        for (name, ver) in &self.libraries {
            match current.libraries.iter().find(|(n, _)| n == name) {
                Some((_, cur)) if cur == ver => {}
                Some((_, cur)) => out.push(format!("library {name}: saved={ver} current={cur}")),
                None => out.push(format!("library {name}: missing in current environment")),
            }
        }
        out
    }
}

fn rustc_version_string() -> String {
    // The toolchain that produced this binary is not introspectable at run
    // time without shelling out; record the compile-time target instead,
    // which is what determines kernel-level numeric behaviour.
    format!("rustc({})", std::env::consts::ARCH)
}

/// A restorable training object (paper §3.3, Fig. 5), stored inline in its
/// model's provenance record: its class name, the code or import command,
/// its constructor arguments, and, for a stateful object, its state file.
/// The paper's wrapper also has configuration-file arguments and arguments
/// that reference other wrapped objects; every save left both empty, and
/// the references are the record's own fields here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Wrapper {
    /// Class name of the wrapped object.
    pub class_name: String,
    /// The defining code or the import command for library classes.
    pub import_or_code: String,
    /// Constructor arguments (JSON).
    pub init_args: serde_json::Value,
    /// State file for stateful objects (file id).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub state_file: Option<String>,
}

/// How a provenance save's model was trained from its base: the wrapped
/// train service, dataloader and optimizer, and the training dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// The train service (the training logic and its hyper-parameters).
    pub train_service: Wrapper,
    /// The dataloader the train service reads batches from.
    pub dataloader: Wrapper,
    /// The optimizer, with its state file from before the training.
    pub optimizer: Wrapper,
    /// The training dataset.
    pub dataset: DatasetRef,
}

/// A model's layer hashes as its model-info document stores them: the
/// leaves of its Merkle tree (one digest per layer, in layer order) and
/// their layer paths. Every value has at least one leaf and one path per
/// leaf: [`LayerHashes::new`] and the decode refuse anything else. Only
/// `SaveService::load_layer_hashes` in mmlib-core folds the leaves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LayerHashes {
    leaves: Vec<Digest>,
    paths: Vec<String>,
}

impl LayerHashes {
    /// The hashes of `layers`, `(layer_path, digest)` in layer order;
    /// `None` for an empty list.
    pub fn new<'a>(layers: impl Iterator<Item = (&'a str, &'a Digest)>) -> Option<LayerHashes> {
        let (paths, leaves): (Vec<String>, Vec<Digest>) =
            layers.map(|(p, d)| (p.to_string(), *d)).unzip();
        (!leaves.is_empty()).then_some(LayerHashes { leaves, paths })
    }

    /// Each layer's path with its digest, in layer order.
    pub fn leaves(&self) -> impl Iterator<Item = (&str, &Digest)> {
        self.paths.iter().map(String::as_str).zip(&self.leaves)
    }
}

impl Deserialize for LayerHashes {
    fn from_value(v: &serde::Value) -> Result<LayerHashes, serde::de::Error> {
        #[derive(Deserialize)]
        struct Stored {
            leaves: Vec<Digest>,
            paths: Vec<String>,
        }
        let Stored { leaves, paths } = Stored::from_value(v)?;
        if leaves.is_empty() || paths.len() != leaves.len() {
            let (l, p) = (leaves.len(), paths.len());
            return Err(serde::de::Error::custom(format!("layer hashes with {l} leaves, {p} paths")));
        }
        Ok(LayerHashes { leaves, paths })
    }
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
    /// The environment the model was saved in.
    pub environment: EnvironmentInfo,
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
    /// The leaves of the model's Merkle tree, which a parameter update on
    /// this model diffs against (§3.2).
    pub layer_hashes: LayerHashes,
    /// Merkle root over the model's layer hashes (hex) — the recovery
    /// checksum of §3.1.
    pub root_hash: String,
    /// How the model was trained (provenance saves only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub provenance: Option<Provenance>,
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
    /// The one constructor: a model of `approach` saved in `environment`
    /// on `base` (if any), whose layer hashes are `layer_hashes` with root
    /// `root_hash`. It names no file, update or provenance and has no tags;
    /// each save sets the fields its approach stores.
    pub fn new(
        approach: ApproachKind,
        arch: &str,
        relation: ModelRelation,
        base: Option<&SavedModelId>,
        environment: EnvironmentInfo,
        layer_hashes: LayerHashes,
        root_hash: String,
    ) -> ModelInfoDoc {
        ModelInfoDoc {
            approach,
            arch: arch.to_string(),
            relation,
            base_model: base.map(|b| b.doc_id().as_str().to_string()),
            environment,
            code_file: None,
            weights_file: None,
            update_encoding: None,
            update_layers: None,
            layer_hashes,
            root_hash,
            provenance: None,
            tags: Vec::new(),
            rebased_from: None,
        }
    }

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
    /// one ownership rule fsck, deletion and GC share: the base model, then
    /// architecture code, weights, the dataset container and the wrapped
    /// objects' state files. The model owns all of it except the
    /// [`BASE_MODEL`], a saved model of its own and the only document
    /// referenced.
    pub fn references(&self) -> Vec<(Ref, &'static str)> {
        let file = |id: &str, role| (Ref::File(FileId::from_string(id.to_string())), role);
        let mut out = Vec::new();
        if let Some(base) = &self.base_model {
            out.push((Ref::Doc(DocId::from_string(base.clone())), BASE_MODEL));
        }
        if let Some(f) = &self.code_file {
            out.push(file(f, "architecture-code"));
        }
        if let Some(f) = &self.weights_file {
            out.push(file(f, "weights"));
        }
        if let Some(p) = &self.provenance {
            if let Some(f) = &p.dataset.container_file {
                out.push(file(f, "dataset-container"));
            }
            for w in [&p.train_service, &p.dataloader, &p.optimizer] {
                if let Some(f) = &w.state_file {
                    out.push(file(f, "wrapper-state"));
                }
            }
        }
        out
    }
}

/// The role [`ModelInfoDoc::references`] gives a model's base: the one
/// reference the model does not own.
pub const BASE_MODEL: &str = "base-model";

/// The target of one [`ModelInfoDoc::references`] entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ref {
    /// A document: the base model.
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
    /// The chain's model-info documents, tip first, each once.
    pub docs: Vec<Document>,
    /// The files of the links the plan rebuilds, snapshot first.
    pub files: Vec<(FileId, Vec<u8>)>,
}

/// The one definition of what a recovery of `tip` reads, read here, next to
/// the data: every link's model-info document ([`walk_chain`] with `limit`),
/// and for each link [`links_to_rebuild`] keeps, the files of its
/// [`ModelInfoDoc::references`]: the code, the weights, the dataset
/// container and the optimizer's state file.
///
/// Never an error: the set ends at the first read that fails, and after the
/// model-info documents when the walk ends abnormally. A recovery that
/// misses an item reads it itself and meets the failure there. A document
/// read more than once (a cyclic chain's) is in the set once.
pub fn recovery_reads(storage: &ModelStorage, tip: &SavedModelId, limit: usize) -> RecoveryReads {
    let mut reads = RecoveryReads::default();
    let read = |id: &DocId| {
        let doc = storage.get_doc(id)?;
        reads.docs.push(doc.clone());
        Ok(doc)
    };
    let walk = walk_chain(read, tip, limit, |_| false);
    if matches!(walk.end, WalkEnd::Complete) {
        let plan = links_to_rebuild(&walk.links);
        let rebuilt = walk.links.iter().zip(plan).rev().filter(|(_, rebuild)| *rebuild);
        let files = rebuilt.flat_map(|((_, info), _)| info.references()).filter_map(|(target, _)| {
            match target {
                Ref::File(id) => Some(id),
                Ref::Doc(_) => None,
            }
        });
        for id in files {
            // A failed read is where the recovery will fail too.
            let Ok(bytes) = storage.get_file(&id) else { break };
            reads.files.push((id, bytes));
        }
    }
    // A cyclic chain reads the same documents until the limit: keep each
    // once, where it was first read.
    let mut seen = BTreeSet::new();
    reads.docs.retain(|doc| seen.insert(doc.id.clone()));
    reads
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
    /// Model-info documents, the one kind a save writes.
    pub const MODEL_INFO: &str = "model_info";
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
        let base = base_model.map(|b| SavedModelId(DocId::from_string(b.into())));
        let mut info = ModelInfoDoc::new(
            approach,
            "resnet152",
            ModelRelation::PartiallyUpdated,
            base.as_ref(),
            EnvironmentInfo::capture(),
            LayerHashes::new([("fc", &Digest([7; 32]))].into_iter()).unwrap(),
            "00".repeat(32),
        );
        info.weights_file = Some("f-1".into());
        info
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

    #[test]
    fn capture_is_populated() {
        let env = EnvironmentInfo::capture();
        assert!(!env.mmlib_version.is_empty());
        assert!(!env.os_type.is_empty());
        assert!(env.cpu_count >= 1);
        assert_eq!(env.libraries.len(), 4);
    }

    #[test]
    fn identical_environments_match() {
        let env = EnvironmentInfo::capture();
        assert!(env.mismatches_against(&env.clone()).is_empty());
    }

    #[test]
    fn version_drift_is_detected() {
        let saved = EnvironmentInfo::capture();
        let mut current = saved.clone();
        current.mmlib_version = "9.9.9".into();
        current.libraries[0].1 = "0.0.0".into();
        let mismatches = saved.mismatches_against(&current);
        assert_eq!(mismatches.len(), 2);
        assert!(mismatches[0].contains("mmlib_version"));
    }

    #[test]
    fn hostname_difference_is_not_a_mismatch() {
        let saved = EnvironmentInfo::capture();
        let mut current = saved.clone();
        current.hostname = "other-node".into();
        current.total_memory_kb += 1;
        assert!(saved.mismatches_against(&current).is_empty());
    }

    #[test]
    fn missing_library_is_detected() {
        let saved = EnvironmentInfo::capture();
        let mut current = saved.clone();
        current.libraries.remove(0);
        let mismatches = saved.mismatches_against(&current);
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("missing"));
    }

    #[test]
    fn serde_round_trip() {
        let env = EnvironmentInfo::capture();
        let json = serde_json::to_string(&env).unwrap();
        let back: EnvironmentInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(env, back);
    }
}
