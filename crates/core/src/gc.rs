//! Store maintenance: dependency graphs, deletion, and garbage collection.
//!
//! The paper's setting accumulates hundreds of derived models ("for now, we
//! save all models created"); any production deployment eventually needs to
//! *unsave* some. Deletion under mmlib's approaches is non-trivial, because
//! parameter-update and provenance models are only recoverable through their
//! base chain: deleting a base silently breaks every descendant. This
//! module makes the dependency structure explicit:
//!
//! * [`read_store`] — the one read of a store for maintenance: every
//!   document, read once, into the [`DependencyGraph`] that deletion, GC
//!   and fsck are all built on. (The lineage graph has its own read,
//!   `mmlib_store::schema::LineageGraph::read`, which keeps one node per
//!   model-info document and no bodies: a model's lineage is its model-info
//!   document, so deleting the model deletes its lineage too.)
//! * [`delete_model`] — deletes one model's document and files, refusing
//!   while other saved models still depend on it.
//! * [`collect_garbage`] — mark-and-sweep: given a set of *live* roots,
//!   removes every model (and its files) that no live model's
//!   recovery chain can reach.
//!
//! Both remove what [`ModelInfoDoc::references`] lists as owned by a garbage
//! model, minus anything a kept model lists, so "GC, then fsck is clean"
//! holds: fsck checks references with the same rule.

use std::collections::{BTreeMap, BTreeSet};

use mmlib_store::{DocId, Document, FileId, ModelStorage};

use crate::error::CoreError;
use crate::meta::{kinds, ModelInfoDoc, Ref, SavedModelId};
use crate::recovery::SaveService;

/// One read of a store, sorted by document kind, with the base/derived
/// dependency graph over its saved models.
#[derive(Debug, Default)]
pub struct DependencyGraph {
    /// Model id → its decoded info document.
    pub models: BTreeMap<SavedModelId, ModelInfoDoc>,
    /// Model id → ids of models directly derived from it.
    pub dependents: BTreeMap<SavedModelId, Vec<SavedModelId>>,
    /// Every other document: a save writes none, so each is a stray, which
    /// fsck reports as an orphan.
    pub others: BTreeMap<DocId, Document>,
    /// Documents that could not be read, or whose body does not decode to
    /// its kind's schema, with the error.
    pub unreadable: Vec<(DocId, CoreError)>,
}

impl DependencyGraph {
    /// `self`, or the error of the first document it could not read — for
    /// callers that must not act on a partial view of the store.
    pub fn complete(mut self) -> Result<DependencyGraph, CoreError> {
        if self.unreadable.is_empty() {
            Ok(self)
        } else {
            Err(self.unreadable.swap_remove(0).1)
        }
    }

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

    /// What model `id` owns: the files of its [`ModelInfoDoc::references`]
    /// (the one document it references is its base, a model of its own).
    fn owned(&self, id: &SavedModelId) -> impl Iterator<Item = FileId> + '_ {
        let refs = self.models.get(id).map(|info| info.references());
        refs.into_iter().flatten().filter_map(|(r, _)| match r {
            Ref::File(f) => Some(f),
            Ref::Doc(_) => None,
        })
    }
}

/// Reads every document of the store once (`doc_ids` + one `get_doc` each)
/// and sorts it by kind. A document that cannot be read or decoded is
/// recorded in [`DependencyGraph::unreadable`], not returned as an error;
/// only a failure to list the store is.
pub fn read_store(storage: &ModelStorage) -> Result<DependencyGraph, CoreError> {
    let mut graph = DependencyGraph::default();
    for id in storage.doc_ids()? {
        let doc = match storage.get_doc(&id) {
            Ok(doc) => doc,
            Err(e) => {
                graph.unreadable.push((id, e.into()));
                continue;
            }
        };
        match doc.kind.as_str() {
            kinds::MODEL_INFO => match serde_json::from_value::<ModelInfoDoc>(doc.body) {
                Ok(info) => {
                    let model = SavedModelId(id);
                    if let Some(base) = &info.base_model {
                        graph
                            .dependents
                            .entry(SavedModelId(DocId::from_string(base.clone())))
                            .or_default()
                            .push(model.clone());
                    }
                    graph.models.insert(model, info);
                }
                Err(e) => {
                    let reason = format!("undecodable body: {e}");
                    let err = CoreError::BadModelDocument { id: SavedModelId(id.clone()), reason };
                    graph.unreadable.push((id, err));
                }
            },
            _ => {
                graph.others.insert(id, doc);
            }
        }
    }
    Ok(graph)
}

/// [`read_store`] over `svc`'s store, failing on the first document it could
/// not read or decode.
pub fn dependency_graph(svc: &SaveService) -> Result<DependencyGraph, CoreError> {
    read_store(svc.storage())?.complete()
}

/// Summary of a deletion or garbage collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Model ids removed.
    pub removed_models: Vec<SavedModelId>,
    /// Documents removed (one model-info document per model).
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
    if !graph.models.contains_key(id) {
        return Err(CoreError::BadModelDocument {
            id: id.clone(),
            reason: "not a saved model".into(),
        });
    }
    let kept = graph.models.keys().filter(|m| *m != id);
    sweep(svc, &graph, &[id], kept)
}

/// Removes the `garbage` models: each one's document and every file it owns
/// that no `kept` model owns too.
fn sweep<'a>(
    svc: &SaveService,
    graph: &DependencyGraph,
    garbage: &[&SavedModelId],
    kept: impl Iterator<Item = &'a SavedModelId>,
) -> Result<GcReport, CoreError> {
    let kept: BTreeSet<FileId> = kept.flat_map(|id| graph.owned(id)).collect();
    let storage = svc.storage();
    let mut report = GcReport::default();
    for id in garbage {
        // One already gone was missing, or shared with a model swept before.
        for f in graph.owned(id).filter(|f| !kept.contains(f) && storage.contains_file(f)) {
            report.reclaimed_bytes += storage.file_size(&f)?;
            storage.remove_file(&f)?;
            report.removed_files += 1;
        }
        storage.remove_doc(id.doc_id())?;
        report.removed_docs += 1;
        report.removed_models.push((*id).clone());
    }
    Ok(report)
}

/// Mark-and-sweep garbage collection: keeps `live` models and everything
/// their base closures reach; removes all other saved models with what they
/// own.
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
        marked.extend(graph.base_closure_of(root));
    }
    // Sweep leaves first (descending closure length), so a crash mid-sweep
    // never leaves a surviving model without its base.
    let mut garbage: Vec<&SavedModelId> =
        graph.models.keys().filter(|id| !marked.contains(id)).collect();
    garbage.sort_by_key(|id| std::cmp::Reverse(graph.base_closure_of(id).len()));
    sweep(svc, &graph, &garbage, marked.iter())
}
