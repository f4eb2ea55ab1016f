//! Delta-chain compaction: depth-bounded re-basing of recovery chains.
//!
//! A parameter-update (or provenance) chain of depth *n* costs *n*
//! sequential rebuilds to recover its tip — the linear TTR growth of the
//! paper's recursive recovery. Compaction lists the chain with the one
//! walk (`SaveService::recovery_chain`, which also bounds it), then rebuilds
//! it once from its root, keeping the running model in memory, and promotes
//! every node whose depth-since-last-snapshot reaches `max_depth` to a full
//! snapshot (ModelHub's bounded version-graph storage, applied in place):
//!
//! * recovery stays **byte-identical** — a promotion writes the exact
//!   parameters recovery would have produced, verified against the stored
//!   Merkle root before anything is rewritten;
//! * recovery depth after compaction is `< max_depth` for every node of
//!   the chain, so TTR stays flat no matter how deep the chain grew;
//! * promoted nodes drop their base (`base_model` becomes `None`, the old
//!   edge is kept as `rebased_from` in the same document update), which is
//!   what lets `gc` collect a retired chain prefix.

use mmlib_core::meta::{ApproachKind, SavedModelId};
use mmlib_core::{CoreError, RecoverOptions};
use mmlib_obs::PhaseBreakdown;

use crate::{Lineage, COMPACTIONS, PROMOTED};

/// What one compaction run did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// The recovery chain that was walked, root first.
    pub chain: Vec<SavedModelId>,
    /// Nodes promoted to snapshots, in chain order.
    pub promoted: Vec<SavedModelId>,
    /// The depth bound the run enforced.
    pub max_depth: usize,
    /// Bytes written by the promotions (snapshot state dicts).
    pub bytes_written: u64,
}

impl Lineage<'_> {
    /// Compacts the recovery chain of `tip` so that no node in it is more
    /// than `max_depth - 1` rebuilds away from a snapshot.
    ///
    /// The chain is recovered in a single forward pass (each node exactly
    /// once, from the document the walk decoded); nodes at the depth bound
    /// are promoted in place via `SaveService::promote_to_snapshot`.
    /// Idempotent: a chain already within the bound reports zero promotions.
    pub fn compact(
        &self,
        tip: &SavedModelId,
        max_depth: usize,
    ) -> Result<CompactReport, CoreError> {
        if max_depth == 0 {
            return Err(CoreError::BadModelDocument {
                id: tip.clone(),
                reason: "compaction depth bound must be at least 1".into(),
            });
        }
        let svc = self.svc();
        let bytes_before = svc.storage().bytes_written();
        // Listed tip first, rebuilt root first.
        let chain =
            svc.recovery_chain(tip, RecoverOptions::default().max_chain_depth, |_| false)?;

        let mut current = None;
        let mut promoted = Vec::new();
        let mut depth = 0usize;
        for (id, info) in chain.iter().rev() {
            let model = svc.recover_step(info, id, current.take(), &mut PhaseBreakdown::new())?;
            depth = if info.approach == ApproachKind::Baseline { 0 } else { depth + 1 };
            if depth >= max_depth {
                svc.promote_to_snapshot(id, &model)?;
                promoted.push(id.clone());
                depth = 0;
            }
            current = Some(model);
        }

        self.obs().inc(COMPACTIONS, 1);
        self.obs().inc(PROMOTED, promoted.len() as u64);
        Ok(CompactReport {
            chain: chain.into_iter().rev().map(|(id, _)| id).collect(),
            promoted,
            max_depth,
            bytes_written: svc.storage().bytes_written().saturating_sub(bytes_before),
        })
    }
}
