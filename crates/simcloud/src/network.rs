//! Network model.
//!
//! The paper uses CloudSim's *default* topology — no BRITE file — so the
//! network's only observable effect is the time input/output files take to
//! cross a VM's bandwidth, plus an optional fixed latency between the
//! broker and each datacenter. Both are modeled here.

use crate::ids::DatacenterId;
use crate::time::SimTime;

/// Time to move `size_mb` megabytes over a `bw_mbps` megabit-per-second
/// link, in simulated milliseconds. Zero-size transfers are free; a zero
/// bandwidth link would stall forever, so it is rejected.
pub fn transfer_time(size_mb: f64, bw_mbps: f64) -> SimTime {
    assert!(size_mb >= 0.0, "transfer size must be non-negative");
    if size_mb == 0.0 {
        return SimTime::ZERO;
    }
    assert!(
        bw_mbps > 0.0 && bw_mbps.is_finite(),
        "bandwidth must be positive to transfer data, got {bw_mbps}"
    );
    // MB -> megabits (x8), divided by Mbps gives seconds.
    SimTime::from_secs(size_mb * 8.0 / bw_mbps)
}

/// Broker-to-datacenter latency map.
///
/// CloudSim's default topology has effectively-zero latency; scenarios that
/// want geographic spread can assign per-datacenter one-way delays.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    latencies_ms: Vec<f64>,
}

impl Topology {
    /// A topology where every datacenter is reachable with zero latency
    /// (the paper's setting).
    pub fn flat(datacenters: usize) -> Self {
        Topology {
            latencies_ms: vec![0.0; datacenters],
        }
    }

    /// A topology with explicit one-way latencies per datacenter.
    pub fn with_latencies(latencies_ms: Vec<f64>) -> Self {
        assert!(
            latencies_ms.iter().all(|l| l.is_finite() && *l >= 0.0),
            "latencies must be non-negative"
        );
        Topology { latencies_ms }
    }

    /// One-way latency from the broker to `dc`.
    pub fn latency_to(&self, dc: DatacenterId) -> SimTime {
        let ms = self.latencies_ms.get(dc.index()).copied().unwrap_or(0.0);
        SimTime::new(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_math() {
        // 300 MB over 500 Mbps = 2400 megabits / 500 = 4.8 s.
        let t = transfer_time(300.0, 500.0);
        assert!((t.as_secs() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn zero_size_is_free_even_with_zero_bw() {
        assert_eq!(transfer_time(0.0, 0.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected_for_real_transfers() {
        let _ = transfer_time(1.0, 0.0);
    }

    #[test]
    fn flat_topology_is_zero_latency() {
        let t = Topology::flat(3);
        assert_eq!(t.latency_to(DatacenterId(2)), SimTime::ZERO);
        // Out-of-range datacenters default to zero rather than panicking,
        // matching CloudSim's forgiving default topology.
        assert_eq!(t.latency_to(DatacenterId(99)), SimTime::ZERO);
    }

    #[test]
    fn explicit_latencies() {
        let t = Topology::with_latencies(vec![1.0, 2.5]);
        assert_eq!(t.latency_to(DatacenterId(0)), SimTime::new(1.0));
        assert_eq!(t.latency_to(DatacenterId(1)), SimTime::new(2.5));
    }
}
