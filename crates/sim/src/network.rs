//! The inter-node network link.
//!
//! Single-device CoServe moves experts along intra-node routes
//! (SSD→CPU→GPU, [`crate::transfer`]). Scaling *out* adds a second
//! cost surface: moving request activations and expert checkpoints
//! *between* nodes. A [`LinkProfile`] models that surface the same way
//! [`crate::transfer::TransferCosts`] models the intra-node paths —
//! bandwidth plus a fixed latency, fully deterministic — so a cluster
//! dispatcher can charge cross-node hops with the same fidelity the
//! engine charges expert switches.
//!
//! A fleet has one link: every pair of distinct nodes is joined by the
//! same [`LinkProfile`], in both directions. Moving data within a node
//! never crosses it (the intra-node tiers already charge local
//! movement).

use std::fmt;

use crate::memory::Bytes;
use crate::time::SimSpan;

/// Bandwidth and fixed latency of one inter-node link.
///
/// Mirrors the [`crate::transfer::TransferCosts`] convention: bandwidth
/// in decimal MB/s (vendor spec sheets), a fixed per-transfer latency
/// (propagation + protocol), and `f64::INFINITY` bandwidth for a free
/// path (loopback).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Link bandwidth in MB/s (decimal megabytes).
    pub bandwidth_mbps: f64,
    /// Fixed per-transfer latency (RTT/2 + protocol overhead).
    pub latency: SimSpan,
}

impl LinkProfile {
    /// A new link profile.
    ///
    /// # Panics
    ///
    /// Panics when `bandwidth_mbps` is not positive (`INFINITY` is
    /// allowed and means the path is free).
    #[must_use]
    pub fn new(bandwidth_mbps: f64, latency: SimSpan) -> Self {
        assert!(
            bandwidth_mbps > 0.0 && !bandwidth_mbps.is_nan(),
            "link bandwidth must be positive"
        );
        LinkProfile {
            bandwidth_mbps,
            latency,
        }
    }

    /// 10 Gbit/s Ethernet: 1,250 MB/s, 50 µs fixed latency.
    #[must_use]
    pub fn ethernet_10g() -> Self {
        LinkProfile::new(1_250.0, SimSpan::from_micros(50))
    }

    /// Duration of moving `bytes` across this link.
    #[must_use]
    pub fn transfer_duration(&self, bytes: Bytes) -> SimSpan {
        let wire = if self.bandwidth_mbps.is_finite() {
            SimSpan::from_secs_f64(bytes.get() as f64 / (self.bandwidth_mbps * 1e6))
        } else {
            SimSpan::ZERO
        };
        wire + self.latency
    }
}

impl fmt::Display for LinkProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MB/s (+{})", self.bandwidth_mbps, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_duration_is_bandwidth_plus_latency() {
        let link = LinkProfile::ethernet_10g();
        // 125 MB at 1250 MB/s = 100 ms, plus 50 µs fixed.
        let d = link.transfer_duration(Bytes::new(125_000_000));
        assert_eq!(d, SimSpan::from_millis(100) + SimSpan::from_micros(50));
        // Zero bytes pay only the fixed latency.
        assert_eq!(
            link.transfer_duration(Bytes::ZERO),
            SimSpan::from_micros(50)
        );
    }

    #[test]
    fn infinite_bandwidth_is_free_wire_time() {
        let link = LinkProfile::new(f64::INFINITY, SimSpan::from_micros(10));
        assert_eq!(
            link.transfer_duration(Bytes::gib(100)),
            SimSpan::from_micros(10)
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn non_positive_bandwidth_panics() {
        let _ = LinkProfile::new(0.0, SimSpan::ZERO);
    }

    #[test]
    fn displays_name_the_parts() {
        assert!(LinkProfile::ethernet_10g().to_string().contains("1250"));
    }
}
