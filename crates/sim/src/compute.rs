//! Execution cost models.
//!
//! CoServe's scheduler (paper §4.2) models batch execution latency as a
//! linear function `latency = K · n + B` of the batch size `n`, and the
//! offline profiler (§4.5) measures `K`, `B`, the maximum useful batch
//! size, and the memory footprint per batch item. [`LatencyModel`] is the
//! simulator-side ground truth that those measurements sample: linear up
//! to a saturation batch size, with a quadratic penalty beyond it (a real
//! processor runs out of parallelism, so average latency plateaus and
//! then worsens — the behaviour in the paper's Figures 5 and 12).
//!
//! [`MemoryModel`] is the ground truth behind Figure 6: a fixed workspace
//! plus weights plus a per-batch-item activation footprint.

use crate::memory::Bytes;
use crate::time::SimSpan;

/// Ground-truth execution latency for one (architecture × processor) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-batch overhead `B`, in milliseconds.
    pub base_ms: f64,
    /// Marginal per-item cost `K`, in milliseconds.
    pub per_item_ms: f64,
    /// Batch size at which the processor saturates.
    pub saturation: u32,
    /// Quadratic penalty coefficient applied beyond saturation
    /// (ms per item²).
    pub over_penalty_ms: f64,
}

impl LatencyModel {
    /// A purely linear model with the given intercept and slope.
    #[must_use]
    pub fn linear(base_ms: f64, per_item_ms: f64) -> Self {
        LatencyModel {
            base_ms,
            per_item_ms,
            saturation: u32::MAX,
            over_penalty_ms: 0.0,
        }
    }

    /// Adds a saturation knee: beyond `saturation` items, each extra item
    /// costs an additional quadratic penalty.
    #[must_use]
    pub fn with_saturation(mut self, saturation: u32, over_penalty_ms: f64) -> Self {
        self.saturation = saturation;
        self.over_penalty_ms = over_penalty_ms;
        self
    }

    /// Latency of executing a batch of `n` requests, in milliseconds.
    ///
    /// `n = 0` costs nothing (the engine never executes empty batches;
    /// this keeps the model total).
    #[must_use]
    pub fn latency_ms(&self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let over = n.saturating_sub(self.saturation) as f64;
        self.base_ms + self.per_item_ms * n as f64 + self.over_penalty_ms * over * over
    }

    /// Latency of a batch of `n`, as a [`SimSpan`].
    #[must_use]
    pub fn latency(&self, n: u32) -> SimSpan {
        SimSpan::from_millis_f64(self.latency_ms(n))
    }
}

/// Ground-truth memory footprint for one (architecture × processor) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Fixed framework workspace (kernels, allocator slack).
    pub workspace: Bytes,
    /// Model weights; resident while the expert is loaded.
    pub weights: Bytes,
    /// Activation / intermediate-result memory per batch item.
    pub per_item: Bytes,
}

impl MemoryModel {
    /// Creates a memory model.
    #[must_use]
    pub fn new(workspace: Bytes, weights: Bytes, per_item: Bytes) -> Self {
        MemoryModel {
            workspace,
            weights,
            per_item,
        }
    }

    /// Total footprint of running a batch of `n`: workspace + weights +
    /// `n` items' activations.
    #[must_use]
    pub fn footprint(&self, n: u32) -> Bytes {
        self.workspace + self.weights + self.per_item * u64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_linear() {
        let m = LatencyModel::linear(8.0, 1.1).with_saturation(16, 0.5);
        assert!((m.latency_ms(1) - 9.1).abs() < 1e-9);
        assert!((m.latency_ms(10) - 19.0).abs() < 1e-9);
        // Differences are constant K in the linear region.
        let d1 = m.latency_ms(5) - m.latency_ms(4);
        let d2 = m.latency_ms(12) - m.latency_ms(11);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn zero_batch_costs_nothing() {
        let m = LatencyModel::linear(8.0, 1.1);
        assert_eq!(m.latency_ms(0), 0.0);
        assert_eq!(m.latency(0), SimSpan::ZERO);
    }

    #[test]
    fn penalty_kicks_in_after_saturation() {
        let m = LatencyModel::linear(8.0, 1.0).with_saturation(4, 2.0);
        assert!((m.latency_ms(4) - 12.0).abs() < 1e-9);
        assert!((m.latency_ms(6) - (8.0 + 6.0 + 2.0 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn avg_latency_decreases_then_rises() {
        let m = LatencyModel::linear(8.0, 1.0).with_saturation(6, 3.0);
        let avg = |n: u32| m.latency_ms(n) / f64::from(n);
        assert!(avg(1) > avg(4));
        assert!(avg(6) < avg(20));
    }

    #[test]
    fn memory_footprint_is_affine() {
        let m = MemoryModel::new(Bytes::mib(200), Bytes::mib(178), Bytes::mib(260));
        assert_eq!(m.footprint(0), Bytes::mib(378));
        assert_eq!(m.footprint(2), Bytes::mib(378 + 520));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Latency is monotone non-decreasing in batch size.
        #[test]
        fn latency_monotone(
            base in 0.0f64..100.0,
            k in 0.0f64..50.0,
            sat in 1u32..32,
            pen in 0.0f64..10.0,
            n in 1u32..64,
        ) {
            let m = LatencyModel::linear(base, k).with_saturation(sat, pen);
            prop_assert!(m.latency_ms(n + 1) >= m.latency_ms(n));
        }
    }
}
