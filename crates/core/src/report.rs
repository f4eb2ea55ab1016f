//! The unified save/recover API surface: [`SaveRequest`] in,
//! [`SaveReport`]/[`RecoverReport`] out.
//!
//! Every save goes through [`SaveService::save`], which times every phase
//! through `mmlib-obs` and returns a uniform report: the saved id, the
//! approach, the bytes it cost, and where the time went.
//! Recovery mirrors this with [`SaveService::recover_report`].

use std::time::Duration;

use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock, Recorder, DURATION_BUCKETS};

use crate::assemble::Encoding;
use crate::error::CoreError;
use crate::merkle::MerkleDiff;
use crate::meta::{ApproachKind, ModelRelation, SavedModelId};
use crate::provenance::TrainProvenance;
use crate::recovery::{RecoverOptions, SaveService};

/// Histogram of per-phase save wall time, labeled `phase="..."`.
pub(crate) const SAVE_PHASE: &str = "mmlib_save_phase_seconds";
/// Histogram of whole-save wall time, labeled `approach="BA|PUA|MPA"`.
pub(crate) const SAVE_SECONDS: &str = "mmlib_save_seconds";
/// Counter of bytes written per save, labeled `approach="BA|PUA|MPA"`.
pub(crate) const SAVE_BYTES: &str = "mmlib_save_bytes_total";
/// Histogram of per-phase recover wall time, labeled `phase="..."`.
pub(crate) const RECOVER_PHASE: &str = "mmlib_recover_phase_seconds";
/// Histogram of whole-recovery wall time.
pub(crate) const RECOVER_SECONDS: &str = "mmlib_recover_seconds";

/// The save phase taxonomy (see DESIGN.md): every second of a save is
/// charged to exactly one of these labels.
pub const SAVE_PHASES: [&str; 6] = ["hash", "diff", "serialize", "compress", "pack", "write"];

/// The recover phase taxonomy (paper Fig. 12's categories): reading
/// documents and files, building the model and applying state / updates /
/// replayed training, the environment check, and Merkle-root verification.
pub const RECOVER_PHASES: [&str; 4] = ["fetch", "rebuild", "check_env", "verify"];

/// Pre-registers every core metric on `recorder`, so expositions list the
/// full phase taxonomy (with zero counts) before any save/recover runs.
pub fn register_metrics(recorder: &Recorder) {
    for phase in SAVE_PHASES {
        recorder.histogram(SAVE_PHASE, Some(("phase", phase)), &DURATION_BUCKETS);
    }
    for phase in RECOVER_PHASES {
        recorder.histogram(RECOVER_PHASE, Some(("phase", phase)), &DURATION_BUCKETS);
    }
    for approach in [ApproachKind::Baseline, ApproachKind::ParamUpdate, ApproachKind::Provenance] {
        recorder.histogram(SAVE_SECONDS, Some(("approach", approach.abbrev())), &DURATION_BUCKETS);
        recorder.counter(SAVE_BYTES, Some(("approach", approach.abbrev())));
    }
    recorder.histogram(RECOVER_SECONDS, None, &DURATION_BUCKETS);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestKind {
    Full,
    Update,
    CompressedUpdate,
    Provenance,
}

/// One save, described declaratively: which model, against which base, with
/// which approach. Build with the constructors
/// ([`SaveRequest::full`], [`SaveRequest::update`],
/// [`SaveRequest::compressed_update`], [`SaveRequest::provenance`]) and
/// refine with the builder methods, then pass to [`SaveService::save`].
#[derive(Clone)]
pub struct SaveRequest<'a> {
    kind: RequestKind,
    model: &'a Model,
    base: Option<&'a SavedModelId>,
    base_model: Option<&'a Model>,
    relation: Option<ModelRelation>,
    provenance: Option<&'a TrainProvenance>,
}

impl<'a> SaveRequest<'a> {
    fn new(kind: RequestKind, model: &'a Model) -> SaveRequest<'a> {
        SaveRequest {
            kind,
            model,
            base: None,
            base_model: None,
            relation: None,
            provenance: None,
        }
    }

    /// A full snapshot (the baseline approach).
    pub fn full(model: &'a Model) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Full, model)
    }

    /// A parameter update against `base`.
    pub fn update(model: &'a Model, base: &'a SavedModelId) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Update, model).base(base)
    }

    /// A delta-compressed parameter update; needs the base's parameters in
    /// memory (`base_model`) to form deltas.
    pub fn compressed_update(
        model: &'a Model,
        base_model: &'a Model,
        base: &'a SavedModelId,
    ) -> SaveRequest<'a> {
        let mut req = SaveRequest::new(RequestKind::CompressedUpdate, model).base(base);
        req.base_model = Some(base_model);
        req
    }

    /// A provenance save: store how `model` was trained from `base`.
    pub fn provenance(
        model: &'a Model,
        base: &'a SavedModelId,
        prov: &'a TrainProvenance,
    ) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Provenance, model)
            .base(base)
            .provenance_data(prov)
    }

    /// Sets the base model id (recorded as lineage; required by every kind
    /// except [`SaveRequest::full`]).
    pub fn base(mut self, base: &'a SavedModelId) -> SaveRequest<'a> {
        self.base = Some(base);
        self
    }

    /// Sets the model's relation to its base. Defaults to
    /// [`ModelRelation::Initial`] without a base and
    /// [`ModelRelation::PartiallyUpdated`] with one.
    pub fn relation(mut self, relation: ModelRelation) -> SaveRequest<'a> {
        self.relation = Some(relation);
        self
    }

    /// Attaches training provenance (required for provenance saves).
    pub fn provenance_data(mut self, prov: &'a TrainProvenance) -> SaveRequest<'a> {
        self.provenance = Some(prov);
        self
    }

    fn resolved_relation(&self) -> ModelRelation {
        self.relation.unwrap_or(if self.base.is_none() {
            ModelRelation::Initial
        } else {
            ModelRelation::PartiallyUpdated
        })
    }

    fn require_base(&self) -> Result<&'a SavedModelId, CoreError> {
        self.base.ok_or_else(|| missing_field("this save kind requires a base model"))
    }
}

pub(crate) fn missing_field(reason: &str) -> CoreError {
    CoreError::BadModelDocument {
        id: SavedModelId(mmlib_store::DocId::from_string("unsaved".into())),
        reason: reason.into(),
    }
}

/// What one save did and what it cost — the uniform return of
/// [`SaveService::save`].
#[derive(Debug)]
pub struct SaveReport {
    /// The saved model id.
    pub id: SavedModelId,
    /// The approach the save used.
    pub approach: ApproachKind,
    /// Bytes written to storage by this save (the paper's storage-
    /// consumption metric).
    pub storage_bytes: u64,
    /// Total time-to-save wall time.
    pub tts: Duration,
    /// Where the save time went, by phase (see [`SAVE_PHASES`]).
    pub phases: PhaseBreakdown,
    /// The Merkle diff, when a parameter update was saved.
    pub diff: Option<MerkleDiff>,
    /// The compressed encoding's statistics, for compressed updates.
    pub encoded: Option<mmlib_compress::EncodedUpdate>,
}

/// Whether a recovery's bit-exactness was checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The recovered parameters matched the stored Merkle root.
    Verified,
    /// Verification was disabled in [`RecoverOptions`].
    Skipped,
}

/// A recovered model with its full cost accounting — the uniform return of
/// [`SaveService::recover_report`].
pub struct RecoverReport {
    /// The recovered model.
    pub model: Model,
    /// Where the recovery time went, accumulated over the whole base chain
    /// (always all four [`RECOVER_PHASES`], in that order).
    pub phases: PhaseBreakdown,
    /// Number of base models recovered along the chain (0 for a snapshot).
    pub recovered_bases: u32,
    /// Whether the result was verified against the stored Merkle root.
    pub verification: VerifyOutcome,
    /// Total time-to-recover wall time.
    pub ttr: Duration,
}

impl std::fmt::Debug for RecoverReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverReport")
            .field("arch", &self.model.arch)
            .field("phases", &self.phases)
            .field("recovered_bases", &self.recovered_bases)
            .field("verification", &self.verification)
            .field("ttr", &self.ttr)
            .finish_non_exhaustive()
    }
}

impl SaveService {
    /// Saves a model as described by `req`, timing every phase.
    ///
    /// This is the only way to save: the request names the approach, the
    /// report carries the id, the approach, and byte and phase accounting.
    pub fn save(&self, req: SaveRequest<'_>) -> Result<SaveReport, CoreError> {
        let obs = self.obs();
        let bytes_before = self.storage().bytes_written();
        let mut clock = PhaseClock::new(obs, SAVE_PHASE, "phase");
        let relation = req.resolved_relation();

        let encoding = match req.kind {
            RequestKind::Full => Some(Encoding::Snapshot),
            RequestKind::Update => Some(Encoding::StateDict),
            RequestKind::CompressedUpdate => Some(Encoding::DeltaV1(
                req.base_model
                    .ok_or_else(|| missing_field("compressed updates need the base model"))?,
            )),
            RequestKind::Provenance => None,
        };
        let (id, approach, diff, encoded) = match encoding {
            Some(encoding) => {
                let saved = self.assemble(req.model, req.base, relation, encoding, &mut clock)?;
                let approach = match saved.diff {
                    Some(_) => ApproachKind::ParamUpdate,
                    None => ApproachKind::Baseline,
                };
                (self.commit(saved.batch, &mut clock)?, approach, saved.diff, saved.encoded)
            }
            None => {
                let base = req.require_base()?;
                let prov = req
                    .provenance
                    .ok_or_else(|| missing_field("provenance saves need TrainProvenance"))?;
                let id = self.save_provenance_phased(req.model, base, prov, &mut clock)?;
                (id, ApproachKind::Provenance, None, None)
            }
        };

        let tts = clock.elapsed();
        let storage_bytes = self.storage().bytes_written().saturating_sub(bytes_before);
        obs.observe_duration(SAVE_SECONDS, ("approach", approach.abbrev()), tts);
        obs.inc_labeled(SAVE_BYTES, ("approach", approach.abbrev()), storage_bytes);
        Ok(SaveReport {
            id,
            approach,
            storage_bytes,
            tts,
            phases: clock.finish(),
            diff,
            encoded,
        })
    }

    /// Recovers a saved model, resolving its base chain (the paper's
    /// recursive recovery, §3.2/§3.3), and returns it with its cost
    /// accounting: the phase breakdown accumulated over the whole chain, the
    /// verification outcome, and the total TTR.
    ///
    /// Verification (when enabled) runs once, on the final model, against
    /// the stored Merkle root of the *requested* id — intermediate chain
    /// steps only feed parameters forward. So the fold rebuilds only the
    /// links the result depends on (`schema::links_to_rebuild`): a
    /// parameter update whose layers later updates all rewrite is neither
    /// fetched nor decoded.
    ///
    /// A store that can fetch everything the recovery reads in one exchange
    /// (a registry: one `ChainGet`) is asked first, and the recovery reads
    /// through a view of the answer; whatever the view lacks it reads from
    /// the store, so every error comes from the same read as without it.
    pub fn recover_report(
        &self,
        id: &SavedModelId,
        opts: RecoverOptions,
    ) -> Result<RecoverReport, CoreError> {
        let obs = self.obs();
        let mut clock = PhaseClock::new(obs, RECOVER_PHASE, "phase");
        let mut phases = PhaseBreakdown::new();
        let read_ahead = self.timed(&mut phases, "fetch", || {
            self.storage().recovery_reads(id, opts.max_chain_depth).transpose()
        })?;
        let view;
        let svc = match read_ahead {
            Some(reads) => {
                view = self.reading_ahead(reads);
                &view
            }
            None => self,
        };
        // The chain's documents tip first, then its models snapshot first.
        let chain = self.timed(&mut phases, "fetch", || {
            svc.recovery_chain(id, opts.max_chain_depth, |_| false)
        })?;
        if opts.check_env {
            for (_, info) in &chain {
                self.timed(&mut phases, "check_env", || svc.check_environment(info))?;
            }
        }
        let plan = mmlib_store::schema::links_to_rebuild(&chain);
        let mut model = None;
        for ((node, info), rebuild) in chain.iter().zip(plan).rev() {
            if rebuild {
                model = Some(svc.recover_step(info, node, model, &mut phases)?);
            }
        }
        let (Some(model), Some((_, info))) = (model, chain.first()) else {
            return Err(CoreError::BadModelDocument {
                id: id.clone(),
                reason: "empty recovery chain".into(),
            });
        };

        let verification = if opts.verify {
            self.timed(&mut phases, "verify", || {
                crate::verify::verify_against_root(&model, &info.root_hash, id)
            })?;
            VerifyOutcome::Verified
        } else {
            VerifyOutcome::Skipped
        };
        let ttr = clock.elapsed();

        // A chain hits each phase once per node; the histogram takes one
        // observation per phase per recovery, so the sums go in here.
        for phase in RECOVER_PHASES {
            clock.record(phase, phases.get(phase));
        }
        obs.observe(RECOVER_SECONDS, ttr.as_secs_f64());
        Ok(RecoverReport {
            model,
            phases: clock.finish(),
            recovered_bases: (chain.len() - 1) as u32,
            verification,
            ttr,
        })
    }
}
