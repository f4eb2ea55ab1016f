//! Deterministic fault injection for the storage stack.
//!
//! The paper's claim — exact model representations recovered in a
//! distributed environment — is only testable if the save/recover path is
//! exercised under the failures a real server+nodes deployment sees: torn
//! file writes, transient IO errors, dropped and truncated TCP frames.
//! This module provides the *schedule* for such failures:
//!
//! * [`FaultPlan`] — a seeded, deterministic schedule mapping operation
//!   indices to [`Fault`]s. The same seed always produces the same
//!   schedule, so every fault-matrix test failure is reproducible from its
//!   seed alone.
//! * [`FaultInjector`] — the runtime counterpart: an operation cursor that
//!   hands out the scheduled fault (if any) each time the instrumented code
//!   reaches an injection point.
//!
//! Byte-level torn writes are injected *inside* the local store's atomic
//! write path (see [`ModelStorage::open_with_faults`]); network faults are
//! interpreted by `mmlib-net`'s server hook. Both consume the same plan
//! type, so one seed describes one failure scenario end to end.
//!
//! [`ModelStorage::open_with_faults`]: crate::ModelStorage::open_with_faults

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an injected IO error before any bytes are
    /// written (a full-disk or permission-style failure).
    IoError,
    /// A file write is cut after `after_bytes` bytes; the remainder never
    /// reaches disk and the operation reports failure — the simulated
    /// process crash mid-write.
    TornWrite {
        /// Bytes that make it to the temporary file before the "crash".
        after_bytes: u64,
    },
    /// The operation is delayed by `micros` before proceeding normally
    /// (a slow-disk / congested-link stand-in).
    Latency {
        /// Injected delay in microseconds.
        micros: u64,
    },
    /// Network: the connection is dropped before the frame is written.
    DropConnection,
    /// Network: the frame's bytes are cut after `after_bytes`, then the
    /// connection is dropped — a torn write's wire-protocol sibling.
    TruncateFrame {
        /// Frame bytes that reach the socket before the drop.
        after_bytes: u64,
    },
    /// Network: the connection is reset as soon as it is accepted — the
    /// transient `ECONNRESET` a restarting registry produces.
    ConnReset,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::IoError => f.write_str("io-error"),
            Fault::TornWrite { after_bytes } => write!(f, "torn-write@{after_bytes}"),
            Fault::Latency { micros } => write!(f, "latency:{micros}us"),
            Fault::DropConnection => f.write_str("drop-connection"),
            Fault::TruncateFrame { after_bytes } => write!(f, "truncate-frame@{after_bytes}"),
            Fault::ConnReset => f.write_str("conn-reset"),
        }
    }
}

/// A seeded, deterministic fault schedule: operation index → fault.
///
/// Construct an explicit schedule with [`FaultPlan::new`] + [`FaultPlan::with`],
/// or derive one pseudo-randomly (but reproducibly) from a seed with
/// [`FaultPlan::storage_from_seed`] / [`FaultPlan::net_from_seed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: BTreeMap<u64, Fault>,
}

/// Splitmix64 step — the standard seed expander; deterministic across
/// platforms, which is all the schedule generator needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan carrying `seed` as its label.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: BTreeMap::new() }
    }

    /// Schedules `fault` at write-operation index `op` (0-based).
    pub fn with(mut self, op: u64, fault: Fault) -> FaultPlan {
        self.faults.insert(op, fault);
        self
    }

    /// Derives a storage-fault schedule from `seed`: one to three faults
    /// (torn writes, IO errors, latency) over the first 16 write ops —
    /// enough to hit every document/file write of one model save.
    pub fn storage_from_seed(seed: u64) -> FaultPlan {
        let mut state = seed ^ 0x6d6d_6c69_622d_7273; // "mmlib-rs" flavour
        let mut plan = FaultPlan::new(seed);
        let count = 1 + splitmix64(&mut state) % 3;
        for _ in 0..count {
            let op = splitmix64(&mut state) % 16;
            let fault = match splitmix64(&mut state) % 4 {
                0 => Fault::IoError,
                1 | 2 => Fault::TornWrite { after_bytes: splitmix64(&mut state) % 4096 },
                _ => Fault::Latency { micros: splitmix64(&mut state) % 500 },
            };
            plan.faults.insert(op, fault);
        }
        plan
    }

    /// Derives a network-fault schedule from `seed`: one to three faults
    /// (dropped connections, truncated frames, latency) over the first 24
    /// response frames.
    pub fn net_from_seed(seed: u64) -> FaultPlan {
        let mut state = seed ^ 0x6d6d_6c69_622d_6e65; // "mmlib-ne" flavour
        let mut plan = FaultPlan::new(seed);
        let count = 1 + splitmix64(&mut state) % 3;
        for _ in 0..count {
            let op = splitmix64(&mut state) % 24;
            let fault = match splitmix64(&mut state) % 4 {
                0 => Fault::DropConnection,
                1 | 2 => Fault::TruncateFrame { after_bytes: splitmix64(&mut state) % 64 },
                _ => Fault::Latency { micros: splitmix64(&mut state) % 500 },
            };
            plan.faults.insert(op, fault);
        }
        plan
    }

    /// The seed this plan was built from (diagnostics / reproduction).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled `(op, fault)` pairs in op order.
    pub fn scheduled(&self) -> impl Iterator<Item = (u64, Fault)> + '_ {
        self.faults.iter().map(|(&op, &f)| (op, f))
    }

    fn at(&self, op: u64) -> Option<Fault> {
        self.faults.get(&op).copied()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}: [", self.seed)?;
        for (i, (op, fault)) in self.scheduled().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "op {op} {fault}")?;
        }
        f.write_str("]")
    }
}

/// Runtime cursor over a [`FaultPlan`]: each call to [`FaultInjector::next`]
/// consumes one operation index and returns the fault scheduled there.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Wraps a plan with a fresh cursor.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, cursor: AtomicU64::new(0), injected: AtomicU64::new(0) }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consumes the next operation index; returns its scheduled fault.
    /// `Latency` faults are slept here and not returned — callers only see
    /// faults they must act on.
    pub fn next(&self) -> Option<Fault> {
        let op = self.cursor.fetch_add(1, Ordering::SeqCst);
        match self.plan.at(op) {
            Some(Fault::Latency { micros }) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(micros));
                None
            }
            Some(fault) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Some(fault)
            }
            None => None,
        }
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    /// Faults injected so far (latency included).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The `io::Error` representing an injected fault; `kind` is `Other` so it
/// is never confused with a real `NotFound`/`UnexpectedEof` classification.
pub(crate) fn injected_io_error(fault: &Fault) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {fault}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        for seed in 0..64u64 {
            let a = FaultPlan::storage_from_seed(seed);
            let b = FaultPlan::storage_from_seed(seed);
            assert_eq!(a, b, "same seed must give the same schedule");
            assert!(!a.is_empty(), "generated plans always schedule at least one fault");
        }
        // Different seeds (almost always) give different schedules; assert
        // over a window so the test is deterministic, not probabilistic.
        let distinct: std::collections::BTreeSet<String> =
            (0..64u64).map(|s| FaultPlan::storage_from_seed(s).to_string()).collect();
        assert!(distinct.len() > 32, "seeds must actually vary the schedule");
    }

    #[test]
    fn injector_fires_exactly_at_scheduled_ops() {
        let plan = FaultPlan::new(7)
            .with(1, Fault::IoError)
            .with(3, Fault::TornWrite { after_bytes: 10 });
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next(), None);
        assert_eq!(inj.next(), Some(Fault::IoError));
        assert_eq!(inj.next(), None);
        assert_eq!(inj.next(), Some(Fault::TornWrite { after_bytes: 10 }));
        assert_eq!(inj.next(), None);
        assert_eq!(inj.ops(), 5);
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn latency_faults_are_absorbed_by_the_injector() {
        let inj = FaultInjector::new(FaultPlan::new(0).with(0, Fault::Latency { micros: 1 }));
        assert_eq!(inj.next(), None, "latency is slept, not surfaced");
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn plan_display_lists_schedule_for_reproduction() {
        let plan = FaultPlan::new(42).with(2, Fault::TruncateFrame { after_bytes: 9 });
        assert_eq!(plan.to_string(), "seed 42: [op 2 truncate-frame@9]");
    }
}
