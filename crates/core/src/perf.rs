//! The performance matrix — the offline phase's output (§4.5).
//!
//! For every (architecture × processor) pair the profiler records the
//! linear execution-latency coefficients `K` and `B`, the maximum
//! useful batch size, the expert loading latency from each source tier,
//! and the memory footprint parameters. The online scheduler consults
//! *these measured values* — never the simulator's ground truth — so
//! the prediction/reality split of a real deployment is preserved.

use std::collections::BTreeMap;

use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::device::{ArchId, ProcessorKind};
use coserve_sim::memory::Bytes;
use coserve_sim::time::SimSpan;

/// Measured performance of one (architecture × processor) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Marginal per-request latency `K`, in milliseconds.
    pub k_ms: f64,
    /// Fixed per-batch latency `B`, in milliseconds.
    pub b_ms: f64,
    /// Quality of the linear fit.
    pub r_squared: f64,
    /// The measured maximum useful batch size (where average latency
    /// plateaus, §4.5).
    pub max_batch: u32,
    /// Measured load latency from SSD into this processor's memory.
    pub load_from_ssd: SimSpan,
    /// Measured load latency from CPU memory (the staging cache) into
    /// this processor's memory; equals [`SimSpan::ZERO`] when no such
    /// path exists (CPU executors, UMA devices).
    pub load_from_cpu: SimSpan,
    /// Measured fixed inference workspace.
    pub workspace: Bytes,
    /// Measured per-batch-item activation memory.
    pub per_item: Bytes,
    /// Expert checkpoint size for this architecture.
    pub weights: Bytes,
}

impl PerfEntry {
    /// The predicted execution latency for a batch of `n`: `K·n + B`
    /// (§4.2's estimation).
    #[must_use]
    pub fn predicted_latency(&self, n: u32) -> SimSpan {
        if n == 0 {
            return SimSpan::ZERO;
        }
        SimSpan::from_millis_f64(self.k_ms * f64::from(n) + self.b_ms)
    }

    /// The largest batch whose inference memory fits `budget`, capped by
    /// the measured `max_batch` and floored at 1 (a request must run
    /// even in a tight workspace).
    #[must_use]
    pub fn executable_batch(&self, budget: Bytes) -> u32 {
        let by_memory = if self.per_item.is_zero() {
            self.max_batch
        } else {
            let room = budget.saturating_sub(self.workspace);
            u32::try_from(room.get() / self.per_item.get()).unwrap_or(u32::MAX)
        };
        by_memory.min(self.max_batch).max(1)
    }
}

/// The complete offline measurement set for one device and model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    entries: BTreeMap<(ArchId, ProcessorKind), PerfEntry>,
    usage_probs: Vec<f64>,
    memory_scores: Vec<f64>,
    /// Expert ids by descending usage probability — memoized at
    /// construction so hot paths (preload, placement) get a slice
    /// instead of re-sorting per call.
    by_usage_desc: Vec<ExpertId>,
    /// Per expert id, its position in ascending usage order (ties by
    /// id): the §4.3 stage-2 eviction key.
    usage_rank: Vec<u32>,
}

impl PerfMatrix {
    /// Assembles a matrix from measured parts.
    ///
    /// # Panics
    ///
    /// Panics if `usage_probs` and `memory_scores` lengths differ.
    #[must_use]
    pub fn new(
        entries: BTreeMap<(ArchId, ProcessorKind), PerfEntry>,
        usage_probs: Vec<f64>,
        memory_scores: Vec<f64>,
    ) -> Self {
        assert_eq!(
            usage_probs.len(),
            memory_scores.len(),
            "per-expert tables must have equal length"
        );
        let mut by_usage_desc: Vec<ExpertId> =
            (0..usage_probs.len() as u32).map(ExpertId).collect();
        by_usage_desc.sort_by(|&a, &b| {
            usage_probs[b.index()]
                .partial_cmp(&usage_probs[a.index()])
                .expect("probabilities are finite")
                .then(a.cmp(&b))
        });
        let mut by_usage_asc: Vec<ExpertId> = (0..usage_probs.len() as u32).map(ExpertId).collect();
        by_usage_asc.sort_by(|&a, &b| {
            usage_probs[a.index()]
                .partial_cmp(&usage_probs[b.index()])
                .expect("probabilities are finite")
                .then(a.cmp(&b))
        });
        let mut usage_rank = vec![0u32; by_usage_asc.len()];
        for (rank, e) in (0u32..).zip(&by_usage_asc) {
            if let Some(slot) = usage_rank.get_mut(e.index()) {
                *slot = rank;
            }
        }
        PerfMatrix {
            entries,
            usage_probs,
            memory_scores,
            by_usage_desc,
            usage_rank,
        }
    }

    /// The entry for `(arch, proc)`, if profiled.
    #[must_use]
    pub fn entry(&self, arch: ArchId, proc: ProcessorKind) -> Option<&PerfEntry> {
        self.entries.get(&(arch, proc))
    }

    /// The entry for `(arch, proc)`.
    ///
    /// # Panics
    ///
    /// Panics when the pair was not profiled — configuration error: the
    /// engine must not schedule work onto unprofiled processors.
    #[must_use]
    pub fn expect_entry(&self, arch: ArchId, proc: ProcessorKind) -> &PerfEntry {
        self.entry(arch, proc)
            .unwrap_or_else(|| panic!("no perf entry for {arch}/{proc}"))
    }

    /// All entries in stable order.
    pub fn entries(&self) -> impl Iterator<Item = (ArchId, ProcessorKind, &PerfEntry)> {
        self.entries.iter().map(|(&(a, p), e)| (a, p, e))
    }

    /// Pre-assessed usage probability of expert `e` (possibly estimated
    /// empirically during profiling).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn usage_prob(&self, e: ExpertId) -> f64 {
        self.usage_probs[e.index()]
    }

    /// Normalized memory score of expert `e` (§4.3, Figure 10).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn memory_score(&self, e: ExpertId) -> f64 {
        self.memory_scores[e.index()]
    }

    /// Number of experts covered by the per-expert tables.
    #[must_use]
    pub fn num_experts(&self) -> usize {
        self.usage_probs.len()
    }

    /// Expert ids ordered by descending usage probability (ties broken
    /// by ascending id), the initializer's loading order (§4.1).
    /// Memoized at construction: callers get a slice, never a fresh
    /// sort.
    #[must_use]
    pub fn experts_by_usage(&self) -> &[ExpertId] {
        &self.by_usage_desc
    }

    /// Position of `e` when experts are ordered by *ascending* usage
    /// probability, ties broken by ascending id — the key CoServe's
    /// stage-2 eviction sorts by (§4.3). Ranks are unique, so sorting
    /// by rank is exactly that order. Memoized at construction.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn usage_rank(&self, e: ExpertId) -> u32 {
        self.usage_rank[e.index()]
    }

    /// Builds a matrix directly from a model's declared probabilities
    /// and a closure supplying entries — used by tests and by callers
    /// that skip profiling.
    #[must_use]
    pub fn from_model_with(
        model: &CoeModel,
        mut make_entry: impl FnMut(ArchId, ProcessorKind) -> Option<PerfEntry>,
    ) -> Self {
        let mut entries = BTreeMap::new();
        for arch in model.archs() {
            for proc in ProcessorKind::ALL {
                if let Some(e) = make_entry(arch.id(), proc) {
                    entries.insert((arch.id(), proc), e);
                }
            }
        }
        let usage = model.experts().iter().map(|e| e.usage_prob()).collect();
        let scores = (0..model.num_experts() as u32)
            .map(|i| model.memory_score(ExpertId(i)))
            .collect();
        PerfMatrix::new(entries, usage, scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> PerfEntry {
        PerfEntry {
            k_ms: 1.1,
            b_ms: 8.0,
            r_squared: 0.999,
            max_batch: 16,
            load_from_ssd: SimSpan::from_millis(900),
            load_from_cpu: SimSpan::from_millis(60),
            workspace: Bytes::mib(200),
            per_item: Bytes::mib(260),
            weights: Bytes::new(178_000_000),
        }
    }

    #[test]
    fn predicted_latency_is_linear() {
        let e = entry();
        assert_eq!(e.predicted_latency(0), SimSpan::ZERO);
        let l1 = e.predicted_latency(1).as_millis_f64();
        let l5 = e.predicted_latency(5).as_millis_f64();
        assert!((l1 - 9.1).abs() < 1e-6);
        assert!((l5 - 13.5).abs() < 1e-6);
    }

    #[test]
    fn executable_batch_combines_memory_and_measurement() {
        let e = entry();
        // Plenty of memory: capped by measured max batch.
        assert_eq!(e.executable_batch(Bytes::gib(100)), 16);
        // Tight memory: workspace 200 MiB + n × 260 MiB ≤ budget.
        assert_eq!(e.executable_batch(Bytes::mib(200 + 260 * 3 + 10)), 3);
        // Hopeless memory still allows batch 1.
        assert_eq!(e.executable_batch(Bytes::ZERO), 1);
    }

    #[test]
    fn matrix_lookup_and_ordering() {
        let mut entries = BTreeMap::new();
        entries.insert((ArchId(0), ProcessorKind::Gpu), entry());
        let m = PerfMatrix::new(entries, vec![0.2, 0.5, 0.3], vec![1.0, 1.0, 2.0]);
        assert!(m.entry(ArchId(0), ProcessorKind::Gpu).is_some());
        assert!(m.entry(ArchId(0), ProcessorKind::Cpu).is_none());
        assert_eq!(m.num_experts(), 3);
        assert_eq!(m.usage_prob(ExpertId(1)), 0.5);
        assert_eq!(m.memory_score(ExpertId(2)), 2.0);
        assert_eq!(
            m.experts_by_usage(),
            vec![ExpertId(1), ExpertId(2), ExpertId(0)]
        );
        assert_eq!(m.entries().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no perf entry")]
    fn expect_entry_panics_on_missing() {
        let m = PerfMatrix::new(BTreeMap::new(), vec![], vec![]);
        let _ = m.expect_entry(ArchId(3), ProcessorKind::Cpu);
    }

    #[test]
    fn usage_ties_break_by_id() {
        let m = PerfMatrix::new(BTreeMap::new(), vec![0.5, 0.5], vec![1.0, 1.0]);
        assert_eq!(m.experts_by_usage(), vec![ExpertId(0), ExpertId(1)]);
        assert_eq!(m.usage_rank(ExpertId(0)), 0);
        assert_eq!(m.usage_rank(ExpertId(1)), 1);
    }

    #[test]
    fn usage_rank_orders_ascending_usage() {
        let probs = vec![0.2, 0.5, 0.1, 0.5, 0.3];
        let m = PerfMatrix::new(BTreeMap::new(), probs, vec![1.0; 5]);
        let ranks: Vec<u32> = (0..5).map(|i| m.usage_rank(ExpertId(i))).collect();
        // Ascending usage: e2 (0.1), e0 (0.2), e4 (0.3), e1 (0.5), e3
        // (0.5, the tie goes to the lower id first).
        assert_eq!(ranks, vec![1, 3, 0, 4, 2]);
    }
}
