//! The stored layout of a saved model: one model-info document, holding its
//! environment, beside a layer-hash document of leaves only. Damage to the
//! leaves is caught against the recorded root, and a store written in the
//! layout before it (a separate environment document, a layer-hash
//! document with every level) is refused, never recovered into different
//! bytes.

use mmlib_core::fsck::{fsck, FsckIssue, FsckOptions};
use mmlib_core::{CoreError, MerkleTree, RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::{DocId, ModelStorage};
use mmlib_tensor::hash::{hash_pair, Digest};
use serde_json::json;

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

    let hashes = DocId::from_string(svc.load_model_info(&base).unwrap().layer_hash_doc);
    let mut body = svc.storage().get_doc(&hashes).unwrap().body;
    let leaf = body["leaves"][1].as_str().unwrap().to_string();
    let flipped = if leaf.starts_with('0') { "1" } else { "0" };
    body["leaves"][1] = json!(format!("{flipped}{}", &leaf[1..]));
    svc.storage().update_doc(&hashes, body).unwrap();

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

#[test]
fn a_store_in_the_pre_switch_layout_is_refused_not_misread() {
    let dir = tempfile::tempdir().unwrap();
    let svc = service(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 22);
    model.set_fully_trainable();
    let old = mmlib_core::SavedModelId(save_pre_switch(svc.storage(), &model));

    for opts in [RecoverOptions::default(), RecoverOptions::default().check_env(false)] {
        match svc.recover_report(&old, opts) {
            Err(CoreError::BadModelDocument { id, .. }) => assert_eq!(id, old),
            Err(other) => panic!("expected a bad model document, got {other}"),
            Ok(_) => panic!("a pre-switch model-info document was recovered"),
        }
    }
    bump_classifier(&mut model);
    let err = svc.save(SaveRequest::update(&model, &old)).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }), "{err}");

    // A current model-info document whose layer-hash document has every
    // level: the hashes do not decode, so no update is diffed against them.
    let base = svc.save(SaveRequest::full(&model)).unwrap().id;
    let info = svc.load_model_info(&base).unwrap();
    let hashes = DocId::from_string(info.layer_hash_doc.clone());
    let tree = svc.load_layer_hashes(&info, &base).unwrap();
    let paths: Vec<&str> = tree.leaves().map(|(p, _)| p).collect();
    let body = json!({"levels": levels(&tree), "paths": paths});
    svc.storage().update_doc(&hashes, body).unwrap();
    bump_classifier(&mut model);
    let err = svc.save(SaveRequest::update(&model, &base)).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { ref id, .. } if *id == base), "{err}");
}
