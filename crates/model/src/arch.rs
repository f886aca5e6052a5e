//! Expert model architectures.
//!
//! The paper's evaluation uses three architectures: ResNet101 for the
//! per-component classification experts and YOLOv5m / YOLOv5l for the
//! shared object-detection experts (§5.1). All experts of one
//! architecture share compute cost and memory footprint — the offline
//! profiler exploits exactly that ("experts of the same model
//! architecture are profiled only once", §4.5) — so cost models are
//! keyed by [`ArchId`], not by expert.

use coserve_sim::device::ArchId;
use coserve_sim::memory::Bytes;

/// The [`ArchId`] of the ResNet101 classification architecture.
pub const RESNET101: ArchId = ArchId(0);
/// The [`ArchId`] of the YOLOv5m object-detection architecture.
pub const YOLOV5M: ArchId = ArchId(1);
/// The [`ArchId`] of the YOLOv5l object-detection architecture.
pub const YOLOV5L: ArchId = ArchId(2);

/// A named expert architecture with its checkpoint size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSpec {
    id: ArchId,
    name: String,
    weights: Bytes,
}

impl ArchSpec {
    /// Creates an architecture description.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is zero — a weightless expert cannot be
    /// loaded or evicted, and every algorithm in the paper is about
    /// moving weights.
    #[must_use]
    pub fn new(id: ArchId, name: impl Into<String>, weights: Bytes) -> Self {
        assert!(!weights.is_zero(), "architecture weights must be non-zero");
        ArchSpec {
            id,
            name: name.into(),
            weights,
        }
    }

    /// ResNet101: 44.5 M parameters, ~178 MB fp32 checkpoint.
    #[must_use]
    pub fn resnet101() -> Self {
        ArchSpec::new(RESNET101, "ResNet101", Bytes::new(178_000_000))
    }

    /// YOLOv5m: 21.2 M parameters, ~85 MB fp32 checkpoint.
    #[must_use]
    pub fn yolov5m() -> Self {
        ArchSpec::new(YOLOV5M, "YOLOv5m", Bytes::new(85_000_000))
    }

    /// YOLOv5l: 46.5 M parameters, ~186 MB fp32 checkpoint.
    #[must_use]
    pub fn yolov5l() -> Self {
        ArchSpec::new(YOLOV5L, "YOLOv5l", Bytes::new(186_000_000))
    }

    /// The three architectures used throughout the paper's evaluation.
    #[must_use]
    pub fn paper_set() -> Vec<ArchSpec> {
        vec![
            ArchSpec::resnet101(),
            ArchSpec::yolov5m(),
            ArchSpec::yolov5l(),
        ]
    }

    /// The architecture's identifier.
    #[must_use]
    pub fn id(&self) -> ArchId {
        self.id
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Checkpoint size — the bytes that move when the expert switches.
    #[must_use]
    pub fn weights(&self) -> Bytes {
        self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_archs_have_distinct_ids() {
        let set = ArchSpec::paper_set();
        assert_eq!(set.len(), 3);
        let mut ids: Vec<ArchId> = set.iter().map(ArchSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn resnet_checkpoint_is_fp32_sized() {
        let r = ArchSpec::resnet101();
        // fp32 = 4 bytes for each of ResNet101's 44 549 160 parameters,
        // within slack for buffers/headers.
        let fp32 = 44_549_160u64 * 4;
        let ratio = r.weights().get() as f64 / fp32 as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
        assert_eq!(r.name(), "ResNet101");
    }

    #[test]
    fn paper_memory_scale_matches_motivation() {
        // "over 300 experts (13B parameters, 60GB memory)" — 352
        // ResNet101 classification experts alone reach that scale.
        let r = ArchSpec::resnet101();
        let total = r.weights() * 352;
        assert!(total > Bytes::gib(55), "total {total}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_weights_panics() {
        let _ = ArchSpec::new(ArchId(9), "ghost", Bytes::ZERO);
    }

    #[test]
    fn custom_arch() {
        let a = ArchSpec::new(ArchId(7), "TinyNet", Bytes::mib(4));
        assert_eq!(a.id(), ArchId(7));
        assert_eq!(a.weights(), Bytes::mib(4));
    }
}
