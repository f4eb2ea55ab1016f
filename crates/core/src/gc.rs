//! Store maintenance: dependency graphs, deletion, and garbage collection.
//!
//! The paper's setting accumulates hundreds of derived models ("for now, we
//! save all models created"); any production deployment eventually needs to
//! *unsave* some. Deletion under mmlib's approaches is non-trivial, because
//! parameter-update and provenance models are only recoverable through their
//! base chain: deleting a base silently breaks every descendant. This
//! module makes the dependency structure explicit:
//!
//! * [`dependency_graph`] — scans the store and builds the base/derived
//!   graph over all saved models.
//! * [`delete_model`] — deletes one model's documents and files, refusing
//!   while other saved models still depend on it.
//! * [`collect_garbage`] — mark-and-sweep: given a set of *live* roots,
//!   removes every model (and its documents/files) that no live model's
//!   recovery chain can reach.

use std::collections::{BTreeMap, BTreeSet};

use mmlib_store::{DocId, FileId};

use crate::error::CoreError;
use crate::meta::{kinds, ModelInfoDoc, SavedModelId};
use crate::recovery::SaveService;

/// The base/derived dependency graph over a store's saved models.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    /// Model id → its decoded info document.
    pub models: BTreeMap<SavedModelId, ModelInfoDoc>,
    /// Model id → ids of models directly derived from it.
    pub dependents: BTreeMap<SavedModelId, Vec<SavedModelId>>,
}

impl DependencyGraph {
    /// Models no other model derives from (safe deletion candidates).
    pub fn leaves(&self) -> Vec<SavedModelId> {
        self.models
            .keys()
            .filter(|id| self.dependents.get(id).is_none_or(|d| d.is_empty()))
            .cloned()
            .collect()
    }

    /// The recovery chain of `id`, from the model itself down to its root,
    /// following [`ModelInfoDoc::recovery_parent`]. A chain that repeats no
    /// model cannot be longer than the store, so the walk stops there: on a
    /// corrupt cyclic reference it returns the cycle unrolled to
    /// `models.len()` entries instead of never returning.
    pub fn chain_of(&self, id: &SavedModelId) -> Vec<SavedModelId> {
        let mut out = Vec::new();
        let mut cur = Some(id.clone());
        while let Some(c) = cur {
            if out.len() == self.models.len() {
                break;
            }
            cur = self.models.get(&c).and_then(ModelInfoDoc::recovery_parent);
            out.push(c);
        }
        out
    }

    /// Every model reachable from `id` over `base_model` references,
    /// including `id` itself — the *lineage* closure, as opposed to the
    /// *recovery* chain of [`DependencyGraph::chain_of`].
    ///
    /// The two differ for snapshots saved with a base: the baseline
    /// approach records its base as lineage metadata that recovery never
    /// loads, but tools that walk ancestry (`mmlib lineage`, fsck's
    /// semantic pass) still resolve the reference, so GC must keep it.
    pub fn base_closure_of(&self, id: &SavedModelId) -> Vec<SavedModelId> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut cur = Some(id.clone());
        while let Some(c) = cur {
            if !seen.insert(c.clone()) {
                break; // corrupt cyclic reference; keep what we saw
            }
            let next = self
                .models
                .get(&c)
                .and_then(|info| info.base_model.as_ref())
                .map(|b| SavedModelId(DocId::from_string(b.clone())));
            out.push(c);
            cur = next;
        }
        out
    }
}

/// Scans the store and builds the dependency graph.
pub fn dependency_graph(svc: &SaveService) -> Result<DependencyGraph, CoreError> {
    let mut graph = DependencyGraph::default();
    for doc_id in svc.storage().docs().ids()? {
        let doc = svc.storage().get_doc(&doc_id)?;
        if doc.kind != kinds::MODEL_INFO {
            continue;
        }
        let id = SavedModelId(doc_id);
        let info: ModelInfoDoc =
            serde_json::from_value(doc.body).map_err(|e| CoreError::BadModelDocument {
                id: id.clone(),
                reason: format!("undecodable body: {e}"),
            })?;
        if let Some(base) = &info.base_model {
            graph
                .dependents
                .entry(SavedModelId(DocId::from_string(base.clone())))
                .or_default()
                .push(id.clone());
        }
        graph.models.insert(id, info);
    }
    Ok(graph)
}

/// Summary of a deletion or garbage collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Model ids removed.
    pub removed_models: Vec<SavedModelId>,
    /// Documents removed (model docs + owned docs).
    pub removed_docs: usize,
    /// Files removed.
    pub removed_files: usize,
    /// Bytes reclaimed (file bytes; documents are small).
    pub reclaimed_bytes: u64,
}

/// Deletes one saved model. Fails with [`CoreError::BadModelDocument`] if
/// any other saved model still derives from it (deleting it would orphan
/// their recovery chains).
pub fn delete_model(svc: &SaveService, id: &SavedModelId) -> Result<GcReport, CoreError> {
    let graph = dependency_graph(svc)?;
    if let Some(deps) = graph.dependents.get(id) {
        if !deps.is_empty() {
            return Err(CoreError::BadModelDocument {
                id: id.clone(),
                reason: format!(
                    "{} model(s) still derive from it (e.g. {}); delete or rebase them first",
                    deps.len(),
                    deps[0]
                ),
            });
        }
    }
    let info = graph.models.get(id).ok_or_else(|| CoreError::BadModelDocument {
        id: id.clone(),
        reason: "not a saved model".into(),
    })?;
    let lineage = lineage_index(svc)?;
    remove_model(svc, id, info, lineage.get(id.doc_id().as_str()).map_or(&[], |v| v))
}

/// Maps each model id to the lineage documents describing it (normally one,
/// written by `SaveService::save`; zero for stores predating lineage).
fn lineage_index(svc: &SaveService) -> Result<BTreeMap<String, Vec<DocId>>, CoreError> {
    let mut index: BTreeMap<String, Vec<DocId>> = BTreeMap::new();
    for doc_id in svc.storage().docs().ids()? {
        let doc = svc.storage().get_doc(&doc_id)?;
        if doc.kind != kinds::LINEAGE {
            continue;
        }
        if let Some(model) = doc.body["model"].as_str() {
            index.entry(model.to_string()).or_default().push(doc_id);
        }
    }
    Ok(index)
}

fn remove_model(
    svc: &SaveService,
    id: &SavedModelId,
    info: &ModelInfoDoc,
    lineage_docs: &[DocId],
) -> Result<GcReport, CoreError> {
    let mut report = GcReport::default();
    let (docs, files) = artifacts_of(info);
    for f in files {
        if svc.storage().files().contains(&f) {
            report.reclaimed_bytes += svc.storage().files().size(&f)?;
            svc.storage().files().remove(&f)?;
            report.removed_files += 1;
        }
    }
    for d in docs {
        if svc.storage().docs().contains(&d) {
            svc.storage().docs().remove(&d)?;
            report.removed_docs += 1;
        }
    }
    // The model's lineage record(s) go with it.
    for d in lineage_docs {
        if svc.storage().docs().contains(d) {
            svc.storage().docs().remove(d)?;
            report.removed_docs += 1;
        }
    }
    svc.storage().docs().remove(id.doc_id())?;
    report.removed_docs += 1;
    report.removed_models.push(id.clone());
    Ok(report)
}

/// Documents and files owned by one saved model (including the wrapper tree
/// of a provenance save).
fn artifacts_of(info: &ModelInfoDoc) -> (Vec<DocId>, Vec<FileId>) {
    let mut docs = vec![
        DocId::from_string(info.environment_doc.clone()),
        DocId::from_string(info.layer_hash_doc.clone()),
    ];
    let mut files = Vec::new();
    if let Some(f) = &info.code_file {
        files.push(FileId::from_string(f.clone()));
    }
    if let Some(f) = &info.weights_file {
        files.push(FileId::from_string(f.clone()));
    }
    if let Some(t) = &info.train_doc {
        docs.push(DocId::from_string(t.clone()));
    }
    if let Some(d) = &info.dataset {
        if let Some(f) = &d.container_file {
            files.push(FileId::from_string(f.clone()));
        }
    }
    (docs, files)
}

/// Mark-and-sweep garbage collection: keeps `live` models and everything
/// their recovery chains reach; removes all other saved models and their
/// artifacts. Wrapper documents of removed provenance models are swept by
/// a final orphan pass.
pub fn collect_garbage(
    svc: &SaveService,
    live: &[SavedModelId],
) -> Result<GcReport, CoreError> {
    let graph = dependency_graph(svc)?;
    // Mark.
    let mut marked: BTreeSet<SavedModelId> = BTreeSet::new();
    for root in live {
        if !graph.models.contains_key(root) {
            return Err(CoreError::BadModelDocument {
                id: root.clone(),
                reason: "live root is not a saved model".into(),
            });
        }
        // Mark the full base closure, not just the recovery chain: a
        // snapshot's base is recovery-irrelevant but still referenced as
        // lineage, and collecting it would leave live models with dangling
        // ancestry (fsck reports exactly that as a missing base-model doc).
        for link in graph.base_closure_of(root) {
            marked.insert(link);
        }
    }
    // Sweep models in reverse-dependency order (leaves first) so the
    // "dependents" safety check never trips on another garbage model.
    let mut report = GcReport::default();
    let lineage = lineage_index(svc)?;
    let mut garbage: Vec<&SavedModelId> =
        graph.models.keys().filter(|id| !marked.contains(id)).collect();
    // Leaves first: sort by descending closure length.
    garbage.sort_by_key(|id| std::cmp::Reverse(graph.base_closure_of(id).len()));
    for id in garbage {
        let info = &graph.models[id];
        let sub =
            remove_model(svc, id, info, lineage.get(id.doc_id().as_str()).map_or(&[], |v| v))?;
        report.removed_models.extend(sub.removed_models);
        report.removed_docs += sub.removed_docs;
        report.removed_files += sub.removed_files;
        report.reclaimed_bytes += sub.reclaimed_bytes;
    }
    // Orphan pass: wrapper documents referenced only by removed models.
    let kept_wrapper_docs: BTreeSet<String> = marked
        .iter()
        .filter_map(|id| graph.models.get(id))
        .flat_map(|info| info.train_doc.iter().cloned())
        .collect();
    for doc_id in svc.storage().docs().ids()? {
        let doc = svc.storage().get_doc(&doc_id)?;
        if doc.kind == kinds::WRAPPER && !kept_wrapper_docs.contains(doc_id.as_str()) {
            // A wrapper is live only if some kept train-service doc
            // references it (directly or as its ref_args target).
            let referenced = kept_wrapper_docs.iter().any(|w| {
                svc.storage()
                    .get_doc(&DocId::from_string(w.clone()))
                    .ok()
                    .map(|d| {
                        d.body["ref_args"]
                            .as_object()
                            .is_some_and(|o| o.values().any(|v| v.as_str() == Some(doc_id.as_str())))
                    })
                    .unwrap_or(false)
            });
            if !referenced {
                svc.storage().docs().remove(&doc_id)?;
                report.removed_docs += 1;
            }
        }
        // Lineage records whose model no longer exists (crash remnants of
        // interrupted saves, or records of models removed above whose doc
        // id never made it into the index) are garbage too.
        if doc.kind == kinds::LINEAGE {
            let model_alive = doc.body["model"]
                .as_str()
                .is_some_and(|m| marked.contains(&SavedModelId(DocId::from_string(m.into()))));
            if !model_alive && svc.storage().docs().contains(&doc_id) {
                svc.storage().docs().remove(&doc_id)?;
                report.removed_docs += 1;
            }
        }
    }
    Ok(report)
}
