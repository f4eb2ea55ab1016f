//! Simulated network link.
//!
//! The paper's machines are "connected via 100G InfiniBand" (§4.1). We do
//! not sleep to fake transfers; instead [`SimNetwork`] computes the transfer
//! time a given payload would take and keeps a cumulative ledger, so the
//! distributed experiments can report network cost separately from the real
//! compute/IO time they measure.

use std::sync::Arc;
use std::time::Duration;

use mmlib_obs::Recorder;

/// Counter names for the link ledger, kept in one place so readers and
/// writers cannot drift.
const BYTES_TOTAL: &str = "mmlib_simnet_bytes_total";
const NANOS_TOTAL: &str = "mmlib_simnet_nanos_total";

/// A point-to-point link model: latency + bandwidth, with a transfer ledger.
///
/// The ledger is an [`mmlib_obs::Recorder`] shared by all clones of one
/// link (each `new` starts a fresh, isolated ledger); transfers are also
/// mirrored into the process-wide recorder so the exposition shows
/// aggregate simulated-network traffic.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// One-way latency per transfer.
    latency: Duration,
    /// Usable bandwidth in bytes per second.
    bytes_per_sec: u64,
    ledger: Arc<Recorder>,
}

impl SimNetwork {
    /// A link with the given latency and bandwidth (bytes/second).
    pub fn new(latency: Duration, bytes_per_sec: u64) -> SimNetwork {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        SimNetwork { latency, bytes_per_sec, ledger: Arc::new(Recorder::new()) }
    }

    /// The paper's setup: 100 Gb/s InfiniBand. We assume ~90% goodput and
    /// a 2 µs switch latency.
    pub fn infiniband_100g() -> SimNetwork {
        SimNetwork::new(Duration::from_micros(2), 100_000_000_000 / 8 * 9 / 10)
    }

    /// A slow constrained edge link (1 Gb/s, 10 ms) — the paper's motivation
    /// mentions transfers "with limited available bandwidth".
    pub fn edge_1g() -> SimNetwork {
        SimNetwork::new(Duration::from_millis(10), 1_000_000_000 / 8)
    }

    /// Time one transfer of `bytes` takes on this link.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        // Widen to u128: `bytes * 1e9` overflows u64 beyond ~18.4 GB, which
        // full-scale DIST payloads exceed.
        let nanos = u128::from(bytes) * 1_000_000_000 / u128::from(self.bytes_per_sec);
        self.latency + duration_from_nanos_u128(nanos)
    }

    /// Records a transfer in the ledger and returns its simulated duration.
    pub fn record_transfer(&self, bytes: u64) -> Duration {
        let d = self.transfer_time(bytes);
        self.ledger.inc(BYTES_TOTAL, bytes);
        self.ledger.inc(NANOS_TOTAL, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        mmlib_obs::recorder().inc(BYTES_TOTAL, bytes);
        d
    }

    /// Total bytes recorded.
    pub fn bytes_transferred(&self) -> u64 {
        self.ledger.counter_value(BYTES_TOTAL, None)
    }

    /// Total simulated transfer time recorded.
    pub fn simulated_time(&self) -> Duration {
        Duration::from_nanos(self.ledger.counter_value(NANOS_TOTAL, None))
    }
}

/// `Duration::from_nanos` takes u64, which caps out at ~584 years of
/// nanoseconds; split into whole seconds first so arbitrarily large modeled
/// transfers stay exact.
fn duration_from_nanos_u128(nanos: u128) -> Duration {
    let secs = u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX);
    let subsec = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, subsec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let net = SimNetwork::new(Duration::ZERO, 1_000_000);
        assert_eq!(net.transfer_time(1_000_000), Duration::from_secs(1));
        assert_eq!(net.transfer_time(500_000), Duration::from_millis(500));
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let net = SimNetwork::infiniband_100g();
        let t = net.transfer_time(100);
        assert!(t >= Duration::from_micros(2));
        assert!(t < Duration::from_micros(3));
    }

    #[test]
    fn ledger_accumulates() {
        let net = SimNetwork::new(Duration::from_millis(1), 1_000_000);
        net.record_transfer(1_000_000);
        net.record_transfer(2_000_000);
        assert_eq!(net.bytes_transferred(), 3_000_000);
        assert_eq!(net.simulated_time(), Duration::from_millis(3000 + 2));
    }

    #[test]
    fn huge_transfers_do_not_overflow() {
        // Regression: `bytes * 1_000_000_000` saturated u64 above ~18.4 GB,
        // collapsing every larger payload to the same wrong duration.
        let hundred_gb: u64 = 100 * 1_000_000_000;
        let net = SimNetwork::infiniband_100g();
        let t = net.transfer_time(hundred_gb);
        // 100 GB at 11.25 GB/s goodput ≈ 8.889 s.
        assert!(t > Duration::from_secs(8), "got {t:?}");
        assert!(t < Duration::from_secs(10), "got {t:?}");
        // Strictly monotone in size even past the old saturation point.
        assert!(net.transfer_time(2 * hundred_gb) > t);
    }

    #[test]
    fn clones_share_the_ledger() {
        let net = SimNetwork::edge_1g();
        let other = net.clone();
        other.record_transfer(125_000_000); // 1s at 1 Gb/s
        assert_eq!(net.bytes_transferred(), 125_000_000);
        assert!(net.simulated_time() >= Duration::from_secs(1));
    }

    #[test]
    fn hundred_megabyte_model_on_infiniband_is_fast() {
        // Sanity of the paper's setting: a ResNet-152 snapshot (242 MB)
        // crosses a 100G link in ~20 ms — network is not the bottleneck.
        let net = SimNetwork::infiniband_100g();
        let t = net.transfer_time(242_000_000);
        assert!(t < Duration::from_millis(50), "{t:?}");
    }
}
