//! The stored layout of a saved model: one model-info document, holding its
//! environment and its layer hashes (leaves and paths only). Damage to the
//! leaves is caught against the recorded root, and a store written in a
//! layout before it (the leaves in a layer-hash document of their own; a
//! separate environment document and every tree level) is refused, never
//! recovered into different bytes. No body, however damaged, makes the
//! decode or the tree loader panic.

use std::sync::OnceLock;

use mmlib_core::fsck::{fsck, FsckIssue, FsckOptions};
use mmlib_core::meta::{kinds, LayerHashes, ModelInfoDoc, ModelRelation, SavedModelId};
use mmlib_core::{ApproachKind, CoreError, MerkleTree, RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::schema;
use mmlib_store::{DocId, Document, ModelStorage};
use mmlib_tensor::hash::{hash_pair, Digest};
use proptest::prelude::*;
use serde_json::{json, Value};

fn service(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

fn bump_classifier(model: &mut Model) {
    model.visit_trainable_mut(&mut |path, t, _| {
        if path.starts_with("fc") {
            t.data_mut()[0] += 1.0;
        }
    });
}

/// A flipped hex digit in one stored leaf still decodes (the document holds
/// no interior levels to disagree with it), so the folded root is checked
/// against the recorded one: a parameter update on the damaged base is a bad
/// document and commits nothing, and fsck names the mismatch.
#[test]
fn a_flipped_leaf_fails_an_update_on_its_base_and_commits_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 21);
    model.set_fully_trainable();
    let base = svc.save(SaveRequest::full(&model)).unwrap().id;

    let mut body = svc.storage().get_doc(base.doc_id()).unwrap().body;
    let leaf = body["layer_hashes"]["leaves"][1].as_str().unwrap().to_string();
    let flipped = if leaf.starts_with('0') { "1" } else { "0" };
    body["layer_hashes"]["leaves"][1] = json!(format!("{flipped}{}", &leaf[1..]));
    svc.storage().update_doc(base.doc_id(), body).unwrap();

    bump_classifier(&mut model);
    let (syncs, docs) = (svc.storage().sync_ops(), svc.storage().doc_ids().unwrap());
    let err = svc.save(SaveRequest::update(&model, &base)).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { ref id, .. } if *id == base), "{err}");
    assert_eq!(svc.storage().sync_ops(), syncs, "a refused save commits nothing");
    assert_eq!(svc.storage().doc_ids().unwrap(), docs);

    let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
    let mismatch =
        |i: &FsckIssue| matches!(i, FsckIssue::RootHashMismatch { model } if *model == base);
    assert!(report.issues.iter().any(mismatch), "{:?}", report.issues);
}

/// Every level of `tree`, leaves first, as the layout before leaves-only
/// documents stored them.
fn levels(tree: &MerkleTree) -> Vec<Vec<Digest>> {
    let mut levels = vec![tree.leaves().map(|(_, d)| *d).collect::<Vec<_>>()];
    while levels.last().unwrap().len() > 1 {
        let next = levels
            .last()
            .unwrap()
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => hash_pair(a, b),
                [a] => *a,
                _ => unreachable!(),
            })
            .collect();
        levels.push(next);
    }
    levels
}

/// Writes `model` as the layout before one document per saved model did: a
/// model-info document naming a separate environment document, and a
/// layer-hash document with every level. Returns the model-info id.
fn save_pre_switch(storage: &ModelStorage, model: &Model) -> DocId {
    let tree = MerkleTree::from_model(model);
    assert_eq!(levels(&tree).last().unwrap(), &vec![tree.root()]);
    let environment = serde_json::to_value(mmlib_core::EnvironmentInfo::capture()).unwrap();
    let env = storage.insert_doc("environment", environment).unwrap();
    let paths: Vec<&str> = tree.leaves().map(|(p, _)| p).collect();
    let hashes = storage
        .insert_doc("layer_hashes", json!({"levels": levels(&tree), "paths": paths}))
        .unwrap();
    let entries = model.state_entries();
    let state = entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>();
    let weights = storage.put_file(&mmlib_tensor::ser::state_to_bytes(state)).unwrap();
    let code = storage.put_file(model.arch.source_code().as_bytes()).unwrap();
    let info = json!({
        "approach": "baseline",
        "arch": model.arch.name(),
        "relation": "initial",
        "base_model": null,
        "environment_doc": env.as_str(),
        "code_file": code.as_str(),
        "weights_file": weights.as_str(),
        "layer_hash_doc": hashes.as_str(),
        "root_hash": tree.root().to_hex(),
        "train_doc": null,
        "dataset": null,
    });
    storage.insert_doc("model_info", info).unwrap()
}

/// Rewrites saved model `id` into the layout before its layer hashes moved
/// into its model-info document: their leaves and paths in a
/// `layer_hashes` document of their own, which the model-info document
/// names.
fn move_hashes_out(storage: &ModelStorage, id: &SavedModelId) {
    let mut body = storage.get_doc(id.doc_id()).unwrap().body;
    let hashes = body.as_object_mut().unwrap().remove("layer_hashes").unwrap();
    let doc = storage.insert_doc("layer_hashes", hashes).unwrap();
    body["layer_hash_doc"] = json!(doc.as_str());
    storage.update_doc(id.doc_id(), body).unwrap();
}

#[test]
fn stores_in_earlier_layouts_are_refused_not_misread() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 22);
    model.set_fully_trainable();
    let pre_switch = SavedModelId(save_pre_switch(svc.storage(), &model));
    let split = svc.save(SaveRequest::full(&model)).unwrap().id;
    move_hashes_out(svc.storage(), &split);
    bump_classifier(&mut model);

    for old in [pre_switch, split] {
        for opts in [RecoverOptions::default(), RecoverOptions::default().check_env(false)] {
            match svc.recover_report(&old, opts) {
                Err(CoreError::BadModelDocument { id, .. }) => assert_eq!(id, old),
                Err(other) => panic!("expected a bad model document, got {other}"),
                Ok(_) => panic!("a model-info document in an earlier layout was recovered"),
            }
        }
        let (syncs, docs) = (svc.storage().sync_ops(), svc.storage().doc_ids().unwrap());
        let err = svc.save(SaveRequest::update(&model, &old)).unwrap_err();
        assert!(matches!(err, CoreError::BadModelDocument { ref id, .. } if *id == old), "{err}");
        assert_eq!(svc.storage().sync_ops(), syncs, "a refused save commits nothing");
        assert_eq!(svc.storage().doc_ids().unwrap(), docs);
    }
}

/// A saved model-info body to mutate: a TinyCnn snapshot's, built once.
fn good_body() -> &'static Value {
    static BODY: OnceLock<Value> = OnceLock::new();
    BODY.get_or_init(|| {
        let tree = MerkleTree::from_model(&Model::new_initialized(ArchId::TinyCnn, 23));
        let info = ModelInfoDoc::new(
            ApproachKind::Baseline,
            ArchId::TinyCnn.name(),
            ModelRelation::Initial,
            None,
            mmlib_core::EnvironmentInfo::capture(),
            LayerHashes::new(tree.leaves()).unwrap(),
            tree.root().to_hex(),
        );
        serde_json::to_value(&info).unwrap()
    })
}

/// Applies one mutation, `(what, a, b)`, to a model-info body's layer
/// hashes: drop, swap or re-hex a leaf, drop or add a path or a leaf (so
/// paths and leaves differ in length), or put an arbitrary value in place
/// of a field.
fn mutate(body: &mut Value, (what, a, b): (u8, u64, u64)) {
    let pick = |len: usize, x: u64| (x % len as u64) as usize;
    if what == 5 {
        let keys = ["layer_hashes", "root_hash", "arch", "approach", "environment"];
        body[keys[pick(keys.len(), a)]] = arbitrary_value(&mut [b, a].into_iter().cycle(), 2);
        return;
    }
    let Some(hashes) = body["layer_hashes"].as_object_mut() else { return };
    let mut take = |key: &str| match hashes.get_mut(key).and_then(Value::as_array_mut) {
        Some(list) => std::mem::take(list),
        None => Vec::new(),
    };
    let (mut leaves, mut paths) = (take("leaves"), take("paths"));
    match what {
        0 if !leaves.is_empty() => drop(leaves.remove(pick(leaves.len(), a))),
        1 if !leaves.is_empty() => {
            let n = leaves.len();
            leaves.swap(pick(n, a), pick(n, b));
        }
        // 0 to 4 times 16 hex digits: only 64 is a digest's length.
        2 if !leaves.is_empty() => {
            let i = pick(leaves.len(), a);
            leaves[i] = json!(format!("{b:016x}").repeat(pick(5, a >> 32)));
        }
        3 if !paths.is_empty() => drop(paths.remove(pick(paths.len(), a))),
        4 if a.is_multiple_of(2) => paths.push(json!(format!("extra{b}"))),
        4 => leaves.push(json!(format!("{b:016x}").repeat(4))),
        _ => {}
    }
    hashes.insert("leaves".into(), Value::Array(leaves));
    hashes.insert("paths".into(), Value::Array(paths));
}

/// An arbitrary JSON value drawn from `seeds`, nested at most `depth` deep.
fn arbitrary_value(seeds: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let seed = seeds.next().unwrap_or(0);
    match (seed % 7, depth) {
        (0, _) => Value::Null,
        (1, _) => json!(seed.is_multiple_of(3)),
        (2, _) => json!(seed),
        (3, _) => json!(format!("{seed:x}")),
        (4, _) => json!("ab".repeat(32)),
        (5, d) if d > 0 => {
            let n = (seed >> 8) % 4;
            Value::Array((0..n).map(|_| arbitrary_value(seeds, d - 1)).collect())
        }
        (_, d) if d > 0 => {
            json!({"leaves": arbitrary_value(seeds, d - 1), "paths": arbitrary_value(seeds, d - 1)})
        }
        _ => json!(-1.5),
    }
}

/// Decodes `body` as a model-info document and, when it decodes, folds its
/// layer hashes, checking what each step promises.
fn decode_and_load(body: Value) {
    let id = SavedModelId(DocId::from_string("m-1".into()));
    let doc = Document { id: id.doc_id().clone(), kind: kinds::MODEL_INFO.into(), body };
    let Ok(info) = schema::model_info(doc) else { return };
    let leaves: Vec<(&str, &Digest)> = info.layer_hashes.leaves().collect();
    assert!(!leaves.is_empty(), "decoded layer hashes without leaves");
    if let Ok(tree) = SaveService::load_layer_hashes(&info, &id) {
        assert_eq!(tree.root().to_hex(), info.root_hash);
        assert!(tree.leaves().eq(leaves.iter().copied()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mutated_model_info_bodies_are_refused_or_folded_never_a_panic(
        mutations in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let mut body = good_body().clone();
        for m in &mutations {
            mutate(&mut body, *m);
        }
        decode_and_load(body);
    }

    #[test]
    fn arbitrary_model_info_bodies_are_refused_or_folded_never_a_panic(
        seeds in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        decode_and_load(arbitrary_value(&mut seeds.clone().into_iter(), 3));
        // And the same value in place of a good body's layer hashes.
        let mut body = good_body().clone();
        body["layer_hashes"] = arbitrary_value(&mut seeds.into_iter(), 3);
        decode_and_load(body);
    }
}
