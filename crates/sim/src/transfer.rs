//! Expert movement costs between memory tiers.
//!
//! Switching an expert is the paper's central cost (Figure 1: >90 % of
//! inference latency when loading from SSD). The cost of a move has two
//! physical parts plus two framework parts:
//!
//! * reading bytes off the SSD (`ssd_read`),
//! * deserializing the checkpoint into framework tensors (`deserialize`,
//!   the reason effective SSD load bandwidth is far below the device's
//!   raw read bandwidth),
//! * copying host→device over PCIe (`h2d`; absent on UMA devices), and
//! * reorganizing data for the target processor (`reorg` — the paper
//!   observes that even UMA devices pay >60 % switching overhead,
//!   "possibly due to data reorganization by AI frameworks").
//!
//! A transfer occupies two serially-reusable channels: the SSD read path
//! and the host↔device path. [`TransferCosts::stages`] exposes the split
//! so the engine can reserve each channel separately (an SSD read for
//! executor A can overlap a PCIe copy for executor B).

use std::fmt;

use crate::memory::Bytes;
use crate::time::SimSpan;

/// A direction of expert movement between tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferRoute {
    /// SSD → CPU memory (read + deserialize).
    SsdToCpu,
    /// CPU memory → GPU memory (copy + reorganize).
    CpuToGpu,
    /// SSD → GPU memory (the two stages back to back).
    SsdToGpu,
    /// GPU memory → CPU memory (demotion into the staging cache).
    GpuToCpu,
}

impl fmt::Display for TransferRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferRoute::SsdToCpu => write!(f, "SSD→CPU"),
            TransferRoute::CpuToGpu => write!(f, "CPU→GPU"),
            TransferRoute::SsdToGpu => write!(f, "SSD→GPU"),
            TransferRoute::GpuToCpu => write!(f, "GPU→CPU"),
        }
    }
}

/// The per-channel split of a transfer's duration.
///
/// The split matters for parallelism: the SSD read path and the DMA
/// engine are device-wide serial resources, while deserialization and
/// data reorganization are *per-process* CPU work — multiple executors
/// overlap their `local` legs freely, which is a large part of why
/// parallel executors pay off (Samba-CoE Parallel, CoServe's multiple
/// GPU executors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStages {
    /// Time on the shared SSD read path (raw read).
    pub ssd: SimSpan,
    /// Per-executor framework work (deserialize + reorganize); overlaps
    /// across executors.
    pub local: SimSpan,
    /// Time on the shared host↔device DMA engine (raw copy).
    pub dma: SimSpan,
}

impl TransferStages {
    /// End-to-end duration when the stages run back to back.
    #[must_use]
    pub fn total(&self) -> SimSpan {
        self.ssd + self.local + self.dma
    }
}

/// Bandwidths and fixed overheads describing a device's data paths.
///
/// Bandwidths are in MB/s (decimal megabytes, matching vendor spec
/// sheets); `f64::INFINITY` disables a term (e.g. UMA devices have no
/// physical host→device copy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCosts {
    /// Raw SSD read bandwidth.
    pub ssd_read_mbps: f64,
    /// Framework deserialization bandwidth (checkpoint → tensors).
    pub deserialize_mbps: f64,
    /// Fixed overhead per SSD read (file open, dispatch).
    pub ssd_fixed: SimSpan,
    /// Host→device copy bandwidth (PCIe); infinite on UMA.
    pub h2d_mbps: f64,
    /// Framework data-reorganization bandwidth for the target processor.
    pub reorg_mbps: f64,
    /// Fixed overhead per host→device move.
    pub h2d_fixed: SimSpan,
    /// Device→host copy bandwidth (demotion); infinite on UMA.
    pub d2h_mbps: f64,
    /// Fixed overhead per device→host move.
    pub d2h_fixed: SimSpan,
}

/// `bytes` at `mbps` (decimal MB/s) as a span; infinite bandwidth is free.
fn span_at(bytes: Bytes, mbps: f64) -> SimSpan {
    if !mbps.is_finite() || mbps <= 0.0 {
        // Non-positive bandwidth would be a configuration bug; treat it
        // like infinity rather than dividing by zero. Infinite bandwidth
        // legitimately means "this path does not exist on this device".
        debug_assert!(mbps.is_infinite(), "non-positive transfer bandwidth");
        return SimSpan::ZERO;
    }
    SimSpan::from_secs_f64(bytes.get() as f64 / (mbps * 1e6))
}

impl TransferCosts {
    /// The per-channel stage durations for moving `bytes` along `route`.
    #[must_use]
    pub fn stages(&self, bytes: Bytes, route: TransferRoute) -> TransferStages {
        let read = || span_at(bytes, self.ssd_read_mbps) + self.ssd_fixed;
        let deserialize = || span_at(bytes, self.deserialize_mbps);
        let reorg = || span_at(bytes, self.reorg_mbps);
        let copy = || span_at(bytes, self.h2d_mbps) + self.h2d_fixed;
        match route {
            TransferRoute::SsdToCpu => TransferStages {
                ssd: read(),
                local: deserialize(),
                dma: SimSpan::ZERO,
            },
            TransferRoute::CpuToGpu => TransferStages {
                ssd: SimSpan::ZERO,
                local: reorg(),
                dma: copy(),
            },
            TransferRoute::SsdToGpu => TransferStages {
                ssd: read(),
                local: deserialize() + reorg(),
                dma: copy(),
            },
            TransferRoute::GpuToCpu => TransferStages {
                ssd: SimSpan::ZERO,
                local: SimSpan::ZERO,
                dma: span_at(bytes, self.d2h_mbps) + self.d2h_fixed,
            },
        }
    }

    /// End-to-end duration of moving `bytes` along `route`.
    #[must_use]
    pub fn duration(&self, bytes: Bytes, route: TransferRoute) -> SimSpan {
        self.stages(bytes, route).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> TransferCosts {
        TransferCosts {
            ssd_read_mbps: 530.0,
            deserialize_mbps: 300.0,
            ssd_fixed: SimSpan::from_millis(2),
            h2d_mbps: 12_000.0,
            reorg_mbps: 8_000.0,
            h2d_fixed: SimSpan::from_millis(3),
            d2h_mbps: 12_000.0,
            d2h_fixed: SimSpan::from_millis(1),
        }
    }

    #[test]
    fn ssd_to_gpu_is_sum_of_stages() {
        let c = costs();
        let b = Bytes::new(178_000_000);
        let full = c.duration(b, TransferRoute::SsdToGpu);
        let cpu = c.duration(b, TransferRoute::SsdToCpu);
        let gpu = c.duration(b, TransferRoute::CpuToGpu);
        assert_eq!(full, cpu + gpu);
    }

    #[test]
    fn stage_split_matches_channels() {
        let c = costs();
        let b = Bytes::new(100_000_000);
        let st = c.stages(b, TransferRoute::SsdToGpu);
        assert!(st.ssd > SimSpan::ZERO);
        assert!(st.local > SimSpan::ZERO);
        assert!(st.dma > SimSpan::ZERO);
        assert_eq!(st.total(), st.ssd + st.local + st.dma);
        let cpu_only = c.stages(b, TransferRoute::SsdToCpu);
        assert_eq!(cpu_only.dma, SimSpan::ZERO);
        let gpu_only = c.stages(b, TransferRoute::CpuToGpu);
        assert_eq!(gpu_only.ssd, SimSpan::ZERO);
    }

    #[test]
    fn deserialize_dominates_raw_read() {
        // 178 MB at 530 MB/s raw is ~336 ms; framework deserialization
        // (the per-executor `local` leg) pushes the end-to-end load
        // towards a second — the effect behind Figure 1's 98.9 %.
        let c = costs();
        let st = c.stages(Bytes::new(178_000_000), TransferRoute::SsdToCpu);
        assert!(st.local > st.ssd, "deserialize outweighs the raw read");
        assert!(st.total() > SimSpan::from_millis(900));
        assert!(st.total() < SimSpan::from_millis(1000));
    }

    #[test]
    fn infinite_bandwidth_is_free() {
        let mut c = costs();
        c.h2d_mbps = f64::INFINITY;
        c.h2d_fixed = SimSpan::ZERO;
        c.reorg_mbps = f64::INFINITY;
        let st = c.stages(Bytes::new(1_000_000), TransferRoute::CpuToGpu);
        assert_eq!(st.total(), SimSpan::ZERO);
    }

    #[test]
    fn demotion_is_cheap() {
        let c = costs();
        let b = Bytes::new(178_000_000);
        let demote = c.duration(b, TransferRoute::GpuToCpu);
        let promote = c.duration(b, TransferRoute::CpuToGpu);
        assert!(demote < promote, "demotion skips reorganization");
    }

    #[test]
    fn zero_bytes_costs_only_fixed_overheads() {
        let c = costs();
        assert_eq!(
            c.duration(Bytes::ZERO, TransferRoute::SsdToGpu),
            SimSpan::from_millis(5)
        );
    }

    #[test]
    fn routes_display_their_paths() {
        assert_eq!(TransferRoute::SsdToCpu.to_string(), "SSD→CPU");
        assert_eq!(TransferRoute::CpuToGpu.to_string(), "CPU→GPU");
        assert_eq!(TransferRoute::SsdToGpu.to_string(), "SSD→GPU");
        assert_eq!(TransferRoute::GpuToCpu.to_string(), "GPU→CPU");
    }

    #[test]
    fn cost_monotone_in_bytes() {
        let c = costs();
        let small = c.duration(Bytes::mib(10), TransferRoute::SsdToGpu);
        let large = c.duration(Bytes::mib(100), TransferRoute::SsdToGpu);
        assert!(large > small);
    }
}
