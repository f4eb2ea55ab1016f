//! Store consistency checking — the model-aware half of `mmlib fsck`.
//!
//! Crashes, torn writes, and at-least-once network retries can leave a
//! store physically intact but semantically damaged: documents whose
//! references dangle, blobs no saved model reaches, weights whose bytes no
//! longer hash to the Merkle leaves recorded at save time. [`fsck`] walks
//! every document and blob and cross-checks them against the model
//! metadata schema (paper §3.1):
//!
//! * **physical scan** (local roots only) — leftover `*.tmp` files from
//!   interrupted atomic writes ([`mmlib_store::fsck::scan_local`]);
//! * **document integrity** — every document is read once, by
//!   [`read_store`]; one that does not parse, whose embedded id is not its
//!   filename, or that cannot be read at all is a corrupt document;
//! * **reference resolution** — everything a `model_info` document
//!   references ([`ModelInfoDoc::references`], the rule deletion and GC
//!   share) must exist;
//! * **hash re-verification** — weights blobs are re-parsed and re-hashed
//!   layer by layer against the layer hashes in the model-info document,
//!   and their folded root against the recorded `root_hash`, detecting
//!   truncations and bit flips without recovering a model, and a plain
//!   update's layers against its `update_layers` list, which a tip
//!   recovery trusts to skip the update. (`delta_v1`-encoded updates are
//!   checked for readability only; decoding them requires the base chain.)
//! * **orphan detection** — blobs no saved model reaches, and documents
//!   that are not saved models.
//!
//! With [`FsckOptions::repair`] on a local root, damaged and orphaned
//! entries are moved into `root/quarantine/` — out of every scan's way but
//! recoverable by hand.

use std::collections::BTreeSet;
use std::path::PathBuf;

use mmlib_store::fsck as store_fsck;
use mmlib_store::{DocId, FileId, ModelStorage};
use mmlib_tensor::hash::Digest;
use mmlib_tensor::hash_par::hash_tensors;
use mmlib_tensor::ser::state_from_bytes;
use mmlib_tensor::Tensor;

use crate::error::CoreError;
use crate::gc::{read_store, DependencyGraph};
use crate::merkle::layer_hashes_from_entries;
use crate::meta::{ApproachKind, ModelInfoDoc, Ref, SavedModelId};
use crate::param_update::update_layers_mismatch;
use crate::recovery::SaveService;

/// What [`fsck`] should do.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Re-parse weights blobs and re-verify their per-layer hashes against
    /// the stored layer hashes (slower, catches silent corruption).
    pub verify_hashes: bool,
    /// Quarantine damaged and orphaned entries under `root/quarantine/`
    /// (local roots only; ignored for remote backends).
    pub repair: bool,
}

impl Default for FsckOptions {
    fn default() -> FsckOptions {
        FsckOptions { verify_hashes: true, repair: false }
    }
}

/// One inconsistency found by [`fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A `*.tmp` file left behind by an interrupted atomic write.
    LeftoverTmp {
        /// Absolute path of the temporary file.
        path: PathBuf,
    },
    /// A document that cannot be read or parsed (truncation, bit flip).
    CorruptDoc {
        /// The damaged document.
        id: DocId,
        /// What went wrong.
        detail: String,
    },
    /// A `model_info` document whose body does not decode to the schema.
    BadModelDoc {
        /// The offending model.
        id: SavedModelId,
        /// What was wrong.
        reason: String,
    },
    /// A document referenced by a saved model does not exist.
    MissingDoc {
        /// The model whose reference dangles.
        model: SavedModelId,
        /// The missing document.
        id: DocId,
        /// What the document was (the base model).
        role: String,
    },
    /// A file referenced by a saved model does not exist.
    MissingFile {
        /// The model whose reference dangles.
        model: SavedModelId,
        /// The missing blob.
        id: FileId,
        /// What the file was (weights, code, dataset container, ...).
        role: String,
    },
    /// A weights blob that cannot be read or parsed back into state
    /// entries — the signature of a truncated write.
    CorruptBlob {
        /// The model owning the blob.
        model: SavedModelId,
        /// The damaged blob.
        id: FileId,
        /// Read or parse error text.
        detail: String,
    },
    /// A re-hashed layer disagrees with the stored Merkle leaf — the
    /// signature of a bit flip.
    HashMismatch {
        /// The model whose weights mismatch.
        model: SavedModelId,
        /// The offending layer path (with detail when structural).
        layer: String,
    },
    /// The stored layer hashes do not fold to the model document's recorded
    /// `root_hash`.
    RootHashMismatch {
        /// The inconsistent model.
        model: SavedModelId,
    },
    /// A document no saved model reaches.
    OrphanDoc {
        /// The unreferenced document.
        id: DocId,
        /// Its document kind.
        kind: String,
    },
    /// A blob no saved model reaches.
    OrphanFile {
        /// The unreferenced blob.
        id: FileId,
    },
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckIssue::LeftoverTmp { path } => {
                write!(f, "leftover tmp file {}", path.display())
            }
            FsckIssue::CorruptDoc { id, detail } => {
                write!(f, "corrupt document {id}: {detail}")
            }
            FsckIssue::BadModelDoc { id, reason } => {
                write!(f, "bad model document {id}: {reason}")
            }
            FsckIssue::MissingDoc { model, id, role } => {
                write!(f, "model {model}: missing {role} document {id}")
            }
            FsckIssue::MissingFile { model, id, role } => {
                write!(f, "model {model}: missing {role} file {id}")
            }
            FsckIssue::CorruptBlob { model, id, detail } => {
                write!(f, "model {model}: corrupt blob {id}: {detail}")
            }
            FsckIssue::HashMismatch { model, layer } => {
                write!(f, "model {model}: layer hash mismatch at {layer}")
            }
            FsckIssue::RootHashMismatch { model } => {
                write!(f, "model {model}: merkle root does not match recorded root_hash")
            }
            FsckIssue::OrphanDoc { id, kind } => {
                write!(f, "orphan document {id} (kind {kind:?})")
            }
            FsckIssue::OrphanFile { id } => write!(f, "orphan file {id}"),
        }
    }
}

/// Result of an [`fsck`] pass.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Inconsistencies found, in scan order.
    pub issues: Vec<FsckIssue>,
    /// Saved models whose references and hashes were checked.
    pub models_checked: usize,
    /// Documents visited.
    pub docs_seen: usize,
    /// Blobs visited.
    pub files_seen: usize,
    /// Destination paths of entries moved to quarantine (repair mode).
    pub quarantined: Vec<PathBuf>,
}

impl FsckReport {
    /// True when no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} model(s), {} document(s), {} file(s): {}",
            self.models_checked,
            self.docs_seen,
            self.files_seen,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} issue(s)", self.issues.len())
            }
        )?;
        if !self.quarantined.is_empty() {
            write!(f, ", {} entr(ies) quarantined", self.quarantined.len())?;
        }
        Ok(())
    }
}

struct Checker<'a> {
    storage: &'a ModelStorage,
    opts: &'a FsckOptions,
    local: bool,
    /// The one read of the store every check works from.
    graph: &'a DependencyGraph,
    report: FsckReport,
    file_set: BTreeSet<FileId>,
    reachable_files: BTreeSet<FileId>,
}

/// Checks a store's documents and blobs for semantic consistency; see the
/// module docs for the checks performed.
pub fn fsck(storage: &ModelStorage, opts: &FsckOptions) -> Result<FsckReport, CoreError> {
    let graph = read_store(storage)?;
    let mut c = Checker {
        storage,
        opts,
        local: store_fsck::is_local_root(storage.root()),
        graph: &graph,
        report: FsckReport::default(),
        file_set: storage.file_ids()?.into_iter().collect(),
        reachable_files: BTreeSet::new(),
    };
    c.report.docs_seen = graph.models.len() + graph.others.len() + graph.unreadable.len();
    c.report.files_seen = c.file_set.len();
    c.leftover_tmps()?;
    c.unreadable_docs()?;
    for (id, info) in &graph.models {
        c.check_model(id, info)?;
    }
    c.report.models_checked = graph.models.len();
    c.orphan_pass()?;
    Ok(c.report)
}

impl Checker<'_> {
    /// Leftover `*.tmp` files of interrupted atomic writes (local roots
    /// only), quarantined straight away in repair mode.
    fn leftover_tmps(&mut self) -> Result<(), CoreError> {
        if !self.local {
            return Ok(());
        }
        let root = self.storage.root();
        for path in store_fsck::scan_local(root)? {
            if self.opts.repair {
                self.report.quarantined.push(store_fsck::quarantine(root, &path)?);
            }
            self.report.issues.push(FsckIssue::LeftoverTmp { path });
        }
        Ok(())
    }

    fn quarantine_doc(&mut self, id: &DocId) -> Result<(), CoreError> {
        if self.opts.repair && self.local {
            self.report.quarantined.push(store_fsck::quarantine_doc(self.storage.root(), id)?);
        }
        Ok(())
    }

    fn quarantine_file(&mut self, id: &FileId) -> Result<(), CoreError> {
        if self.opts.repair && self.local {
            self.report.quarantined.push(store_fsck::quarantine_file(self.storage.root(), id)?);
        }
        Ok(())
    }

    /// The documents the one read rejected: a model-info body that does not
    /// decode is a [`FsckIssue::BadModelDoc`]; any other failure (unparsable,
    /// mislabeled, unreadable) is a [`FsckIssue::CorruptDoc`], quarantined
    /// in repair mode.
    fn unreadable_docs(&mut self) -> Result<(), CoreError> {
        let graph = self.graph;
        for (id, err) in &graph.unreadable {
            let issue = match err {
                CoreError::BadModelDocument { id, reason } => {
                    FsckIssue::BadModelDoc { id: id.clone(), reason: reason.clone() }
                }
                err => {
                    self.quarantine_doc(id)?;
                    FsckIssue::CorruptDoc { id: id.clone(), detail: err.to_string() }
                }
            };
            self.report.issues.push(issue);
        }
        Ok(())
    }

    /// Resolves every reference of one saved model — the rule of
    /// [`ModelInfoDoc::references`] — then re-verifies its hashes if
    /// requested.
    fn check_model(&mut self, sid: &SavedModelId, info: &ModelInfoDoc) -> Result<(), CoreError> {
        let graph = self.graph;
        for (target, role) in info.references() {
            match target {
                Ref::Doc(id) if !graph.models.contains_key(&SavedModelId(id.clone())) => {
                    let (model, role) = (sid.clone(), role.to_string());
                    self.report.issues.push(FsckIssue::MissingDoc { model, id, role });
                }
                Ref::Doc(_) => {}
                Ref::File(id) => {
                    if !self.file_set.contains(&id) {
                        self.report.issues.push(FsckIssue::MissingFile {
                            model: sid.clone(),
                            id: id.clone(),
                            role: role.to_string(),
                        });
                    }
                    self.reachable_files.insert(id);
                }
            }
        }
        if self.opts.verify_hashes {
            self.verify_hashes(sid, info)?;
        }
        Ok(())
    }

    /// Re-verifies one model's layer hashes: their folded root vs the
    /// recorded `root_hash`, and (for state-dict weights) re-parsed,
    /// re-hashed layers vs the stored leaves.
    fn verify_hashes(&mut self, sid: &SavedModelId, info: &ModelInfoDoc) -> Result<(), CoreError> {
        // The fold's one refusal is a root that does not match; the leaves
        // are then not checked against the weights.
        let tree = SaveService::load_layer_hashes(info, sid).ok();
        if tree.is_none() {
            self.report.issues.push(FsckIssue::RootHashMismatch { model: sid.clone() });
        }

        let Some(weights) = &info.weights_file else { return Ok(()) };
        let fid = FileId::from_string(weights.clone());
        if !self.file_set.contains(&fid) {
            return Ok(()); // missing file already reported
        }
        match info.update_encoding.as_deref() {
            None | Some("state_dict") => {}
            // Compressed deltas need the base chain to decode; their
            // readability was established by the file listing.
            Some(_) => return Ok(()),
        }
        let bytes = match self.storage.get_file(&fid) {
            Ok(b) => b,
            Err(e) => {
                self.quarantine_file(&fid)?;
                self.report.issues.push(FsckIssue::CorruptBlob {
                    model: sid.clone(),
                    id: fid,
                    detail: e.to_string(),
                });
                return Ok(());
            }
        };
        let entries = match state_from_bytes(&bytes) {
            Ok(entries) => entries,
            Err(e) => {
                self.quarantine_file(&fid)?;
                self.report.issues.push(FsckIssue::CorruptBlob {
                    model: sid.clone(),
                    id: fid,
                    detail: e.to_string(),
                });
                return Ok(());
            }
        };

        // Grouped exactly like a live model's layers, so the blob verifies
        // against its Merkle tree without constructing a model.
        let (paths, tensors): (Vec<String>, Vec<Tensor>) = entries.into_iter().unzip();
        let digests = hash_tensors(&tensors.iter().collect::<Vec<_>>());
        let computed = layer_hashes_from_entries(&paths, &digests);
        match info.approach {
            // A baseline snapshot is the whole model: its layer hashes must
            // reproduce the stored leaves exactly, paths and order included.
            ApproachKind::Baseline => {
                let Some(tree) = tree else { return Ok(()) };
                let leaves: Vec<(&str, &Digest)> = tree.leaves().collect();
                if leaves.len() != computed.len() {
                    self.report.issues.push(FsckIssue::HashMismatch {
                        model: sid.clone(),
                        layer: format!(
                            "(structure: {} stored leaves vs {} in blob)",
                            leaves.len(),
                            computed.len()
                        ),
                    });
                    return Ok(());
                }
                for ((lpath, ldigest), (cpath, cdigest)) in leaves.iter().zip(&computed) {
                    if *lpath != cpath.as_str() || **ldigest != *cdigest {
                        self.report.issues.push(FsckIssue::HashMismatch {
                            model: sid.clone(),
                            layer: cpath.clone(),
                        });
                    }
                }
            }
            // A parameter update holds only the changed layers; each must
            // hash to that layer's leaf in the derived model's tree.
            ApproachKind::ParamUpdate => {
                if let Some(tree) = &tree {
                    for (path, digest) in &computed {
                        let layer = match tree.leaf(path) {
                            Some(d) if d == digest => continue,
                            Some(_) => path.clone(),
                            None => format!("{path} (layer not in tree)"),
                        };
                        let issue = FsckIssue::HashMismatch { model: sid.clone(), layer };
                        self.report.issues.push(issue);
                    }
                }
                // Named here even where no recovery reads the file.
                let held = computed.iter().map(|(p, _)| p.as_str());
                if let Some(reason) = update_layers_mismatch(info, held) {
                    self.report.issues.push(FsckIssue::BadModelDoc { id: sid.clone(), reason });
                }
            }
            // Provenance saves store no weights blob; nothing to re-hash.
            ApproachKind::Provenance => {}
        }
        Ok(())
    }

    /// Reports (and in repair mode quarantines) every blob no saved model
    /// reaches and every document that is not a saved model.
    fn orphan_pass(&mut self) -> Result<(), CoreError> {
        let graph = self.graph;
        for (id, doc) in &graph.others {
            self.quarantine_doc(id)?;
            let kind = doc.kind.clone();
            self.report.issues.push(FsckIssue::OrphanDoc { id: id.clone(), kind });
        }
        let orphan_files: Vec<FileId> =
            self.file_set.difference(&self.reachable_files).cloned().collect();
        for id in orphan_files {
            self.quarantine_file(&id)?;
            self.report.issues.push(FsckIssue::OrphanFile { id });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::BASE_MODEL;
    use crate::report::SaveRequest;
    use mmlib_model::{ArchId, Model};

    fn service(dir: &std::path::Path) -> SaveService {
        SaveService::new(ModelStorage::open(dir).unwrap())
    }

    fn saved_info(svc: &SaveService, id: &SavedModelId) -> ModelInfoDoc {
        let doc = svc.storage().get_doc(id.doc_id()).unwrap();
        serde_json::from_value(doc.body).unwrap()
    }

    #[test]
    fn clean_store_is_clean() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let model = Model::new_initialized(ArchId::TinyCnn, 7);
        svc.save(SaveRequest::full(&model)).unwrap();
        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(report.is_clean(), "unexpected issues: {:?}", report.issues);
        assert_eq!(report.models_checked, 1);
        assert_eq!(report.docs_seen, 1, "one model-info document per saved model");
    }

    #[test]
    fn truncated_weights_blob_is_detected_and_quarantined() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let model = Model::new_initialized(ArchId::TinyCnn, 7);
        let id = svc.save(SaveRequest::full(&model)).unwrap().id;
        let weights = saved_info(&svc, &id).weights_file.unwrap();

        let path = dir.path().join("files").join(format!("{weights}.bin"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(
            report.issues.iter().any(|i| matches!(i, FsckIssue::CorruptBlob { .. })),
            "truncation not detected: {:?}",
            report.issues
        );

        let repaired =
            fsck(svc.storage(), &FsckOptions { repair: true, ..Default::default() }).unwrap();
        assert!(!repaired.quarantined.is_empty());
        assert!(!path.exists(), "corrupt blob must be quarantined");
    }

    #[test]
    fn bit_flip_in_weights_is_detected_via_merkle_leaves() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let model = Model::new_initialized(ArchId::TinyCnn, 7);
        let id = svc.save(SaveRequest::full(&model)).unwrap().id;
        let weights = saved_info(&svc, &id).weights_file.unwrap();

        let path = dir.path().join("files").join(format!("{weights}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                FsckIssue::HashMismatch { .. } | FsckIssue::CorruptBlob { .. }
            )),
            "bit flip not detected: {:?}",
            report.issues
        );
    }

    #[test]
    fn bit_flipped_root_hash_is_detected() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let model = Model::new_initialized(ArchId::TinyCnn, 7);
        let id = svc.save(SaveRequest::full(&model)).unwrap().id;

        let mut info = saved_info(&svc, &id);
        let mut root = info.root_hash.into_bytes();
        root[0] = if root[0] == b'0' { b'1' } else { b'0' };
        info.root_hash = String::from_utf8(root).unwrap();
        let body = serde_json::to_value(&info).unwrap();
        svc.storage().update_doc(id.doc_id(), body).unwrap();

        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(
            report.issues.iter().any(|i| matches!(i, FsckIssue::RootHashMismatch { .. })),
            "root mismatch not detected: {:?}",
            report.issues
        );
    }

    #[test]
    fn orphans_and_missing_references_are_reported() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let model = Model::new_initialized(ArchId::TinyCnn, 7);
        let id = svc.save(SaveRequest::full(&model)).unwrap().id;

        // An orphan blob, and a document of a kind no save writes.
        let orphan_file = svc.storage().put_file(b"stray bytes").unwrap();
        let orphan_doc =
            svc.storage().insert_doc("stray", serde_json::json!({"paths": ["stray"]})).unwrap();
        // A dangling reference: a base model the store does not hold.
        let mut info = saved_info(&svc, &id);
        info.base_model = Some("model-that-never-was".into());
        svc.storage().update_doc(id.doc_id(), serde_json::to_value(&info).unwrap()).unwrap();

        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::OrphanFile { id } if *id == orphan_file)));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::OrphanDoc { id, .. } if *id == orphan_doc)));
        assert!(report.issues.iter().any(
            |i| matches!(i, FsckIssue::MissingDoc { role, .. } if role == BASE_MODEL)
        ));

        // Repair quarantines the orphans; the dangling reference remains
        // reported (fsck cannot invent a lost document).
        let repaired =
            fsck(svc.storage(), &FsckOptions { repair: true, ..Default::default() }).unwrap();
        assert_eq!(repaired.quarantined.len(), 2);
        let after =
            fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(after.issues.iter().all(|i| matches!(i, FsckIssue::MissingDoc { .. })));
    }

    #[test]
    fn param_update_save_verifies_clean() {
        let dir = tempfile::tempdir().unwrap();
        let svc = service(dir.path());
        let base = Model::new_initialized(ArchId::TinyCnn, 7);
        let base_id = svc.save(SaveRequest::full(&base)).unwrap().id;
        let mut derived = base.duplicate();
        derived.set_classifier_only_trainable();
        derived.visit_trainable_mut(&mut |_, param, _| param.data_mut()[0] += 0.5);
        svc.save(SaveRequest::update(&derived, &base_id)).unwrap();

        let report = fsck(svc.storage(), &FsckOptions::default()).unwrap();
        assert!(report.is_clean(), "unexpected issues: {:?}", report.issues);
        assert_eq!(report.models_checked, 2);
    }
}
