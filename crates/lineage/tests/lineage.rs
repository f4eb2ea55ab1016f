//! Integration tests of the lineage DAG, delta-chain compaction, and
//! batch family recovery.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mmlib_core::meta::{ApproachKind, SavedModelId};
use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService};
use mmlib_lineage::Lineage;
use mmlib_model::{ArchId, Model};
use mmlib_store::{DocId, Document, FileId, ModelStorage, StorageBackend, StoreError};

fn svc(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

/// Deterministically perturbs one parameter tensor, so the next save is a
/// genuine (small) delta against the previous version.
fn bump(model: &mut Model, step: usize) {
    let mut done = false;
    model.visit_trainable_mut(&mut |_, w, _| {
        if !done {
            w.data_mut()[0] += 1e-3 + step as f32 * 1e-4;
            done = true;
        }
    });
}

/// The model's full parameter state as exact bits, for byte-identity
/// assertions stronger than float equality.
fn state_bits(model: &Model) -> Vec<(String, Vec<u32>)> {
    model
        .state_dict()
        .into_iter()
        .map(|(name, t)| (name, t.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Builds a PUA chain `root -> u[0] -> ... -> u[depth-1]` and returns every
/// id, root first.
fn build_chain(s: &SaveService, seed: u64, depth: usize) -> (Vec<SavedModelId>, Model) {
    let mut model = Model::new_initialized(ArchId::TinyCnn, seed);
    model.set_fully_trainable();
    let mut ids = vec![s.save(SaveRequest::full(&model)).unwrap().id];
    for step in 0..depth {
        bump(&mut model, step);
        let id = s.save(SaveRequest::update(&model, ids.last().unwrap())).unwrap().id;
        ids.push(id);
    }
    (ids, model)
}

#[test]
fn graph_queries_tags_and_diff() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let (ids, model) = build_chain(&s, 7, 2);
    // Side branch off the middle node.
    let mut side_model = model.duplicate();
    bump(&mut side_model, 99);
    let side = s.save(SaveRequest::update(&side_model, &ids[1])).unwrap().id;

    let lineage = Lineage::new(&s);
    let graph = lineage.graph().unwrap();
    assert_eq!(graph.len(), 4);
    assert_eq!(graph.roots().len(), 1);
    assert_eq!(graph.roots()[0].id, ids[0]);

    // show: the saved parent edge and diff provenance are on the node.
    let node = lineage.show(&ids[1]).unwrap();
    assert_eq!(node.record.parent.as_deref(), Some(ids[0].doc_id().as_str()));
    assert!(node.record.changed_layers.is_some_and(|n| n >= 1));

    // ancestry: tip -> middle -> root, inclusive.
    let up: Vec<String> =
        lineage.ancestry(&ids[2]).unwrap().iter().map(|n| n.id.to_string()).collect();
    assert_eq!(up, vec![ids[2].to_string(), ids[1].to_string(), ids[0].to_string()]);

    // descendants: everything below the root, and the branch below ids[1].
    assert_eq!(lineage.descendants(&ids[0]).unwrap().len(), 3);
    let below_mid: Vec<String> =
        lineage.descendants(&ids[1]).unwrap().iter().map(|n| n.id.to_string()).collect();
    assert!(below_mid.contains(&ids[2].to_string()) && below_mid.contains(&side.to_string()));

    // diff: sibling versions differ in at least the bumped layer and share
    // their branch point as common ancestor.
    let diff = lineage.diff(&ids[2], &side).unwrap();
    assert!(!diff.changed_layers.is_empty());
    assert!(diff.total_layers >= diff.changed_layers.len());
    assert_eq!(diff.common_ancestor, Some(ids[1].clone()));
    let same = lineage.diff(&ids[2], &ids[2]).unwrap();
    assert!(same.changed_layers.is_empty());

    // tag: persisted, idempotent, visible to a fresh service.
    lineage.tag(&ids[2], "release").unwrap();
    lineage.tag(&ids[2], "release").unwrap();
    let lineage = Lineage::new(&s);
    assert_eq!(lineage.show(&ids[2]).unwrap().record.tags, vec!["release".to_string()]);

    // Unknown models are typed errors, not panics.
    let ghost = SavedModelId(DocId::from_string("model-that-never-was".into()));
    assert!(lineage.show(&ghost).is_err());
    assert!(lineage.ancestry(&ghost).is_err());

    // Queries hit the labeled counter.
    let shows = s.recorder().counter_value("mmlib_lineage_queries_total", Some(("kind", "show")));
    assert!(shows >= 2);
}

/// A model's layer hashes are read back from the store — over
/// `RemoteStore`, from the peer — inside its model-info document, so
/// malformed ones must come back as `Err` from both entry points that read
/// them, never as a panic.
#[test]
fn corrupt_layer_hashes_are_errors_not_panics() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let (ids, mut model) = build_chain(&s, 11, 1);
    let base = &ids[1];
    let doc_id = base.doc_id().clone();
    let good = s.storage().get_doc(&doc_id).unwrap().body;
    bump(&mut model, 5);
    let lineage = Lineage::new(&s);

    type Corruption = fn(&mut serde_json::Value);
    let corruptions: [(&str, Corruption); 4] = [
        ("empty leaves", |t| t["layer_hashes"]["leaves"] = serde_json::json!([])),
        ("dropped leaf", |t| drop(t["layer_hashes"]["leaves"].as_array_mut().unwrap().pop())),
        ("swapped leaves", |t| t["layer_hashes"]["leaves"].as_array_mut().unwrap().swap(0, 1)),
        ("swapped path", |t| t["layer_hashes"]["paths"].as_array_mut().unwrap().swap(0, 1)),
    ];
    for (what, corrupt) in corruptions {
        let mut body = good.clone();
        corrupt(&mut body);
        s.storage().update_doc(&doc_id, body).unwrap();
        assert!(s.save(SaveRequest::update(&model, base)).is_err(), "{what}: save");
        match lineage.diff(&ids[0], base) {
            // Paths are not hashed into the tree, so a swapped pair decodes:
            // the save refuses the differing layer list, the by-name diff
            // reports both layers (the bumped one is one of them).
            Ok(diff) => assert_eq!((what, diff.changed_layers.len()), ("swapped path", 2)),
            Err(_) => assert_ne!(what, "swapped path"),
        }
    }

    s.storage().update_doc(&doc_id, good).unwrap();
    let saved = s.save(SaveRequest::update(&model, base)).unwrap();
    assert_eq!(saved.diff.unwrap().changed.len(), 1);
    assert_eq!(lineage.diff(&ids[0], base).unwrap().changed_layers.len(), 1);
}

/// A model in the layout before a model-info document held its layer
/// hashes (a leaves-only `layer_hashes` document beside it, named by
/// `layer_hash_doc`) is refused by `lineage diff`, never diffed.
#[test]
fn diff_refuses_the_layer_hash_document_layout() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let (ids, _) = build_chain(&s, 13, 1);
    let mut body = s.storage().get_doc(ids[1].doc_id()).unwrap().body;
    let hashes = body.as_object_mut().unwrap().remove("layer_hashes").unwrap();
    let doc = s.storage().insert_doc("layer_hashes", hashes).unwrap();
    body["layer_hash_doc"] = serde_json::json!(doc.as_str());
    s.storage().update_doc(ids[1].doc_id(), body).unwrap();
    match Lineage::new(&s).diff(&ids[0], &ids[1]) {
        Err(CoreError::BadModelDocument { id, .. }) => assert_eq!(id, ids[1]),
        other => panic!("expected a bad model document, got {other:?}"),
    }
}

/// The acceptance gate: a depth-64 PUA chain recovers byte-identically
/// after `compact(max_depth = 8)`, with TTR within 1.5x of a fresh
/// depth-8 chain.
#[test]
fn depth64_compaction_is_byte_identical_and_keeps_ttr_flat() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let (ids, trained) = build_chain(&s, 11, 64);
    let tip = ids.last().unwrap().clone();

    let before = s.recover_report(&tip, RecoverOptions::default()).unwrap();
    assert!(before.model.models_equal(&trained));
    assert_eq!(before.recovered_bases, 64);
    let want_bits = state_bits(&before.model);

    let lineage = Lineage::new(&s);
    let report = lineage.compact(&tip, 8).unwrap();
    assert_eq!(report.chain, ids);
    // Depth 64 with a bound of 8: every 8th chain node is promoted,
    // including the tip itself.
    assert_eq!(report.promoted.len(), 8);
    assert_eq!(report.promoted.last(), Some(&tip));

    // Byte-identical recovery, now without any base chain.
    let after = s.recover_report(&tip, RecoverOptions::default()).unwrap();
    assert_eq!(state_bits(&after.model), want_bits);
    assert_eq!(after.recovered_bases, 0);
    // Every chain node still recovers, and none is more than 7 rebuilds
    // from a snapshot.
    for id in &ids {
        let r = s.recover_report(&id.clone(), RecoverOptions::default()).unwrap();
        assert!(r.recovered_bases < 8, "{id} too deep after compaction");
    }
    // Compaction is idempotent: a second run promotes nothing.
    assert!(lineage.compact(&tip, 8).unwrap().promoted.is_empty());
    // The store stays consistent.
    let fsck = mmlib_core::fsck::fsck(s.storage(), &mmlib_core::FsckOptions::default()).unwrap();
    assert!(fsck.is_clean(), "fsck after compaction: {fsck:?}");

    // TTR: compacted depth-64 tip vs a fresh depth-8 chain, min of 5.
    let dir8 = tempfile::tempdir().unwrap();
    let s8 = svc(dir8.path());
    let (ids8, _) = build_chain(&s8, 11, 8);
    let tip8 = ids8.last().unwrap().clone();
    let time = |svc: &SaveService, id: &SavedModelId| -> Duration {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                svc.recover_report(id, RecoverOptions::default()).unwrap();
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let compacted = time(&s, &tip);
    let control = time(&s8, &tip8);
    assert!(
        compacted <= control.mul_f64(1.5),
        "compacted depth-64 TTR {compacted:?} not within 1.5x of depth-8 {control:?}"
    );

    // The recorder is process-global, so sibling tests also bump these;
    // assert at least this test's contribution.
    assert!(s.recorder().counter_value("mmlib_lineage_compactions_total", None) >= 2);
    assert!(s.recorder().counter_value("mmlib_lineage_promoted_total", None) >= 8);
}

#[test]
fn compaction_rebases_records_and_unblocks_gc() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let (ids, _) = build_chain(&s, 3, 16);
    let tip = ids.last().unwrap().clone();

    let lineage = Lineage::new(&s);
    lineage.compact(&tip, 4).unwrap();

    // The promoted tip keeps its history as `rebased_from` but has no live
    // parent, so it is now an ancestry root.
    let node = lineage.show(&tip).unwrap();
    assert!(node.record.parent.is_none());
    assert_eq!(node.record.rebased_from.as_deref(), Some(ids[ids.len() - 2].doc_id().as_str()));
    assert_eq!(lineage.ancestry(&tip).unwrap().len(), 1);
    // The node is a view of the promoted document: a snapshot now, with no
    // update layers to count.
    assert_eq!(node.record.approach, ApproachKind::Baseline);
    assert_eq!(node.record.changed_layers, None);

    // With the tip re-based onto itself, gc can now collect the whole
    // retired prefix.
    let report = mmlib_core::gc::collect_garbage(&s, std::slice::from_ref(&tip)).unwrap();
    assert_eq!(report.removed_models.len(), ids.len() - 1);
    let back = s.recover_report(&tip, RecoverOptions::default()).unwrap();
    assert_eq!(back.recovered_bases, 0);
    let fsck = mmlib_core::fsck::fsck(s.storage(), &mmlib_core::FsckOptions::default()).unwrap();
    assert!(fsck.is_clean(), "fsck after gc: {fsck:?}");
}

/// A pass-through backend that counts `get_file` calls per file id,
/// `get_doc` calls per document id, and document inserts, updates and
/// listings.
struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    file_gets: Mutex<BTreeMap<String, u32>>,
    doc_gets: Mutex<BTreeMap<String, u32>>,
    doc_calls: Mutex<DocCalls>,
}

/// Document inserts, updates and listings seen by a [`CountingBackend`].
#[derive(Debug, Default, PartialEq, Eq)]
struct DocCalls {
    inserts: u32,
    updates: u32,
    listings: u32,
}

impl CountingBackend {
    /// A service over a fresh local store at `dir`, seen through the counter,
    /// with a recorder of its own (sibling tests share the global one).
    fn service(dir: &std::path::Path) -> (SaveService, Arc<CountingBackend>) {
        let counting = Arc::new(CountingBackend {
            inner: ModelStorage::open(dir).unwrap().backend(),
            file_gets: Mutex::new(BTreeMap::new()),
            doc_gets: Mutex::new(BTreeMap::new()),
            doc_calls: Mutex::new(DocCalls::default()),
        });
        let backend = Arc::clone(&counting) as Arc<dyn StorageBackend>;
        let svc = SaveService::new(ModelStorage::from_backend(backend, dir))
            .with_recorder(Arc::new(mmlib_obs::Recorder::new()));
        (svc, counting)
    }

    fn gets(&self) -> BTreeMap<String, u32> {
        self.file_gets.lock().unwrap().clone()
    }

    /// The per-document read counts since the last call.
    fn take_doc_gets(&self) -> BTreeMap<String, u32> {
        std::mem::take(&mut *self.doc_gets.lock().unwrap())
    }

    /// The document inserts, updates and listings since the last call.
    fn take_doc_calls(&self) -> DocCalls {
        std::mem::take(&mut *self.doc_calls.lock().unwrap())
    }
}

impl StorageBackend for CountingBackend {
    fn insert_doc(&self, kind: &str, body: serde_json::Value) -> Result<DocId, StoreError> {
        self.doc_calls.lock().unwrap().inserts += 1;
        self.inner.insert_doc(kind, body)
    }
    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        *self.doc_gets.lock().unwrap().entry(id.as_str().to_string()).or_insert(0) += 1;
        self.inner.get_doc(id)
    }
    fn update_doc(&self, id: &DocId, body: serde_json::Value) -> Result<(), StoreError> {
        self.doc_calls.lock().unwrap().updates += 1;
        self.inner.update_doc(id, body)
    }
    fn contains_doc(&self, id: &DocId) -> bool {
        self.inner.contains_doc(id)
    }
    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.inner.remove_doc(id)
    }
    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.doc_calls.lock().unwrap().listings += 1;
        self.inner.doc_ids()
    }
    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.inner.put_file(bytes)
    }
    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        *self.file_gets.lock().unwrap().entry(id.as_str().to_string()).or_insert(0) += 1;
        self.inner.get_file(id)
    }
    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.inner.file_size(id)
    }
    fn contains_file(&self, id: &FileId) -> bool {
        self.inner.contains_file(id)
    }
    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.inner.remove_file(id)
    }
    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.inner.file_ids()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// The acceptance gate for batch recovery: recovering a family of siblings
/// reads each shared ancestor blob exactly once.
#[test]
fn family_recovery_fetches_each_shared_blob_exactly_once() {
    let dir = tempfile::tempdir().unwrap();
    let (s, counting) = CountingBackend::service(dir.path());

    // One root, one shared mid node, three sibling tips off the mid node.
    let mut model = Model::new_initialized(ArchId::TinyCnn, 5);
    model.set_fully_trainable();
    let root = s.save(SaveRequest::full(&model)).unwrap().id;
    bump(&mut model, 0);
    let mid = s.save(SaveRequest::update(&model, &root)).unwrap().id;
    let mut tips = Vec::new();
    for i in 0..3 {
        let mut m = model.duplicate();
        bump(&mut m, 10 + i);
        let tip = s.save(SaveRequest::update(&m, &mid)).unwrap().id;
        tips.push((tip, m));
    }

    counting.file_gets.lock().unwrap().clear();
    let lineage = Lineage::new(&s);
    let targets: Vec<SavedModelId> = tips.iter().map(|(id, _)| id.clone()).collect();
    let family = lineage.recover_family(&targets, true).unwrap();

    // Right models, right order, byte-identical.
    assert_eq!(family.models.len(), 3);
    assert_eq!(family.unique_nodes, 5);
    for ((want_id, want_model), (got_id, got_model)) in tips.iter().zip(&family.models) {
        assert_eq!(want_id, got_id);
        assert_eq!(state_bits(want_model), state_bits(got_model));
    }

    // The exactly-once contract: every blob that was read was read once —
    // the root snapshot and the shared mid delta are not re-fetched per
    // sibling.
    let gets = counting.gets();
    assert!(!gets.is_empty());
    for (file, count) in &gets {
        assert_eq!(*count, 1, "file {file} fetched {count} times during family recovery");
    }

    // Control: recovering the three tips independently re-reads shared
    // ancestors (3x the root and mid blobs), which is what the batch path
    // eliminates.
    counting.file_gets.lock().unwrap().clear();
    for (tip, _) in &tips {
        s.recover_report(tip, RecoverOptions::default()).unwrap();
    }
    assert!(
        counting.gets().values().any(|&c| c >= 3),
        "independent recovery should re-fetch shared ancestors"
    );

    assert_eq!(s.recorder().counter_value("mmlib_lineage_family_recovers_total", None), 1);
    assert_eq!(s.recorder().counter_value("mmlib_lineage_family_models_total", None), 3);
    assert_eq!(s.recorder().histogram_count("mmlib_lineage_family_recover_seconds", None), 1);
}

/// The count gates of the one chain walk, on a depth-32 update chain: a
/// model-info document is decoded once and handed on, not re-read by each
/// layer that needs the next base. Counts, so the gate holds on any machine.
#[test]
fn chain_operations_read_each_model_info_once() {
    let dir = tempfile::tempdir().unwrap();
    let (s, counting) = CountingBackend::service(dir.path());
    let (ids, _) = build_chain(&s, 13, 32);
    let tip = ids.last().unwrap().clone();
    let lineage = Lineage::new(&s);
    let reads_of = |gets: &BTreeMap<String, u32>, id: &SavedModelId| {
        gets.get(id.doc_id().as_str()).copied().unwrap_or(0)
    };

    // Plain recovery: every document of the chain exactly once.
    counting.take_doc_gets();
    s.recover_report(&tip, RecoverOptions::default()).unwrap();
    let gets = counting.take_doc_gets();
    for id in &ids {
        assert_eq!(reads_of(&gets, id), 1, "recover_report: {id}");
    }

    // Family recovery of the eight deepest versions, verified: the first
    // target walks to the root, every later one stops at the ancestor the
    // one before it rebuilt, and verification uses the root hash the walk
    // decoded. Blobs are still fetched once each.
    counting.file_gets.lock().unwrap().clear();
    let family = lineage.recover_family(&ids[25..], true).unwrap();
    assert_eq!((family.models.len(), family.unique_nodes), (8, 33));
    for (file, count) in counting.gets() {
        assert_eq!(count, 1, "recover_family: file {file} fetched {count} times");
    }
    let gets = counting.take_doc_gets();
    for id in &ids {
        assert_eq!(reads_of(&gets, id), 1, "recover_family: {id}");
    }

    // Compaction: the walk, and `promote_to_snapshot`'s own load on the
    // four promoted nodes. It inserts no document: a promotion rewrites
    // the model-info document it already updates.
    counting.take_doc_calls();
    let report = lineage.compact(&tip, 8).unwrap();
    assert_eq!(report.promoted.len(), 4);
    let gets = counting.take_doc_gets();
    for id in &ids {
        let want = if report.promoted.contains(id) { 2 } else { 1 };
        assert_eq!(reads_of(&gets, id), want, "compact: {id}");
    }
    assert_eq!(counting.take_doc_calls(), DocCalls { updates: 4, ..DocCalls::default() });
}

/// `tag` reads and rewrites only the tagged model's own document, however
/// large the store: one `get_doc` and one update, no listing. Tagging it
/// again reads the document and writes nothing.
#[test]
fn tagging_reads_and_updates_one_document() {
    let dir = tempfile::tempdir().unwrap();
    let (s, counting) = CountingBackend::service(dir.path());
    let (ids, _) = build_chain(&s, 17, 4);
    let lineage = Lineage::new(&s);
    counting.take_doc_gets();
    counting.take_doc_calls();

    let node = lineage.tag(&ids[2], "best").unwrap();
    assert_eq!(node.record.tags, vec!["best".to_string()]);
    let one_get = BTreeMap::from([(ids[2].doc_id().as_str().to_string(), 1)]);
    assert_eq!(counting.take_doc_gets(), one_get);
    assert_eq!(counting.take_doc_calls(), DocCalls { updates: 1, ..DocCalls::default() });

    lineage.tag(&ids[2], "best").unwrap();
    assert_eq!(counting.take_doc_gets(), one_get);
    assert_eq!(counting.take_doc_calls(), DocCalls::default());
    assert_eq!(lineage.show(&ids[2]).unwrap().record.tags, vec!["best".to_string()]);
}

/// The two hostile chains of `recovery_errors.rs` (an update that names
/// itself; two that name each other) under the lineage operations: both walk
/// with the one loop, so both end at its depth guard after a bounded number
/// of document reads — no hang, no panic, no seen-set of their own.
#[test]
fn hostile_chains_end_at_the_depth_guard() {
    for two_cycle in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let (s, counting) = CountingBackend::service(dir.path());
        let (ids, _) = build_chain(&s, 17, 2);
        let (mid, tip) = (&ids[1], &ids[2]);
        let forged = if two_cycle { mid } else { tip };
        let mut doc = s.storage().get_doc(forged.doc_id()).unwrap();
        doc.body["base_model"] = serde_json::json!(tip.doc_id().as_str());
        s.storage().update_doc(forged.doc_id(), doc.body).unwrap();

        let lineage = Lineage::new(&s);
        let limit = RecoverOptions::default().max_chain_depth;
        let ends_at_the_guard = |what: &str, op: &dyn Fn() -> Result<(), CoreError>| {
            counting.take_doc_gets();
            let outcome = op();
            assert!(
                matches!(outcome, Err(CoreError::BaseChainTooDeep { .. })),
                "{what} (two_cycle={two_cycle}): {outcome:?}"
            );
            let reads: u32 = counting.take_doc_gets().values().sum();
            assert!(reads as usize <= limit + 1, "{what}: {reads} document reads");
        };
        ends_at_the_guard("compact", &|| lineage.compact(tip, 8).map(drop));
        ends_at_the_guard("recover_family", &|| {
            lineage.recover_family(std::slice::from_ref(tip), true).map(drop)
        });
    }
}
