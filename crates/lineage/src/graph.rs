//! The lineage DAG: nodes are saved model versions, edges are live parent
//! links carrying diff provenance and tags.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mmlib_core::gc::read_store;
use mmlib_core::meta::{LineageRecordDoc, SavedModelId};
use mmlib_core::{CoreError, SaveService};
use mmlib_store::DocId;

/// One node of the lineage DAG: a saved model version and its record.
#[derive(Debug, Clone)]
pub struct LineageNode {
    /// The saved model this node describes.
    pub id: SavedModelId,
    /// The persisted record (derivation edge, diff provenance, tags).
    pub record: LineageRecordDoc,
    /// The backing `lineage` document, or `None` for nodes synthesized
    /// from `model_info` metadata of models saved before lineage records
    /// existed.
    pub doc: Option<DocId>,
}

impl LineageNode {
    /// The live parent edge, as a model id.
    pub fn parent_id(&self) -> Option<SavedModelId> {
        self.record.parent.as_ref().map(|p| SavedModelId(DocId::from_string(p.clone())))
    }
}

/// The lineage DAG over one store's saved models.
///
/// Built from the `lineage` records `SaveService::save` emits. Models
/// without a record (stores predating lineage, or a record lost to a
/// crash) get a node synthesized from their `model_info` base reference,
/// so the graph is always total over the store's models. Lineage records
/// describing models that no longer exist are skipped — reporting them is
/// `fsck`'s job.
#[derive(Debug, Default)]
pub struct LineageGraph {
    nodes: BTreeMap<String, LineageNode>,
    children: BTreeMap<String, Vec<String>>,
}

impl LineageGraph {
    /// Reads the store ([`read_store`]) and builds the DAG.
    pub fn load(svc: &SaveService) -> Result<LineageGraph, CoreError> {
        let store = read_store(svc.storage())?.complete()?;
        let mut graph = LineageGraph::default();
        for (id, info) in &store.models {
            let model = id.doc_id().as_str().to_string();
            // The last record in document-id order describes the model.
            let node = match store.lineage.get(id).and_then(|records| records.last()) {
                Some((doc_id, record)) => LineageNode {
                    id: id.clone(),
                    record: record.clone(),
                    doc: Some(doc_id.clone()),
                },
                // Legacy model: synthesize the record from its info doc.
                None => LineageNode {
                    id: id.clone(),
                    record: LineageRecordDoc {
                        model: model.clone(),
                        parent: info.base_model.clone(),
                        approach: info.approach,
                        relation: info.relation,
                        root_hash: info.root_hash.clone(),
                        changed_layers: None,
                        tags: Vec::new(),
                        rebased_from: None,
                    },
                    doc: None,
                },
            };
            if let Some(parent) = node.parent_id() {
                // Edges into missing models are dropped (fsck reports the
                // dangling reference); edges between live models are kept.
                if store.models.contains_key(&parent) {
                    let children = graph.children.entry(parent.doc_id().to_string()).or_default();
                    children.push(model.clone());
                }
            }
            graph.nodes.insert(model, node);
        }
        Ok(graph)
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

    /// The node for `id`, or a typed error naming the missing model.
    pub fn require(&self, id: &SavedModelId) -> Result<&LineageNode, CoreError> {
        self.node(id).ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "not a saved model (no lineage node)".into(),
        })
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
    /// Fails on a cyclic parent chain (corruption) rather than looping.
    pub fn ancestry_of(&self, id: &SavedModelId) -> Result<Vec<&LineageNode>, CoreError> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut cur = self.require(id)?;
        loop {
            if !seen.insert(cur.id.to_string()) {
                return Err(CoreError::BadModelDocument {
                    id: id.clone(),
                    reason: format!("cyclic lineage at {}", cur.id),
                });
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
