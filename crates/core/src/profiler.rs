//! The offline performance profiler (§4.5).
//!
//! "Offline profiling is performed once for each device using a set of
//! microbenchmarks." The profiler sweeps batch sizes on every
//! (architecture × processor) pair, measures execution latency and
//! memory footprint (with realistic measurement noise), fits the
//! paper's `K·n + B` latency model, detects the maximum useful batch
//! size as the point where average latency plateaus, and measures
//! expert load latencies per source tier. Experts of the same
//! architecture are profiled only once.
//!
//! Usage probabilities come from one of two sources (§4.5): computed
//! exactly from predefined routing rules, or estimated empirically by
//! running the routing over a sample dataset.

use std::collections::BTreeMap;

use coserve_metrics::stats::linear_fit;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::device::{ArchId, DeviceProfile, ProcessorKind};
use coserve_sim::rng::SimRng;
use coserve_sim::time::SimSpan;
use coserve_sim::transfer::TransferRoute;
use coserve_workload::stream::RequestStream;

use crate::engine::EngineError;
use crate::perf::{PerfEntry, PerfMatrix};

/// Where the profiler gets expert usage probabilities from.
#[derive(Debug, Clone, Copy)]
pub enum UsageSource<'a> {
    /// Keep the probabilities already attached to the model (computed
    /// directly from predefined routing rules — the circuit-board case).
    Declared,
    /// Estimate empirically by counting expert occurrences in a sample
    /// request stream (the trained-router case).
    Empirical(&'a RequestStream),
}

/// Largest batch size probed by the microbenchmark.
const MAX_PROBE_BATCH: u32 = 32;

/// Multiplicative measurement noise amplitude (±1 %).
const NOISE: f64 = 0.01;

/// Relative slack for the average-latency plateau rule: the maximum
/// batch is the smallest `n` whose average latency is within this
/// fraction of the best observed average.
const PLATEAU_THRESHOLD: f64 = 0.02;

/// Repetitions averaged per probe point.
const REPETITIONS: u32 = 3;

/// RNG seed for measurement noise.
const NOISE_SEED: u64 = 0xC0_5E_4E;

/// One probe point of the microbenchmark sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// Batch size probed.
    pub batch: u32,
    /// Measured batch latency, milliseconds (noise included).
    pub latency_ms: f64,
    /// Measured memory footprint of the run.
    pub footprint: coserve_sim::memory::Bytes,
}

/// The offline profiler.
///
/// Every device is measured the same way: batch sizes 1 to 32, each
/// probe the average of three runs under ±1 % seeded noise, and the
/// maximum batch taken where the average per-request latency comes
/// within 2 % of its best. Profiling is deterministic, so two passes
/// over the same device and model produce the same matrix.
#[derive(Debug, Clone)]
pub struct Profiler;

impl Profiler {
    /// Creates the profiler.
    #[must_use]
    pub fn with_defaults() -> Self {
        Profiler
    }

    /// Runs the microbenchmark sweep for one (architecture × processor)
    /// pair, returning the probed points — the raw data behind the
    /// paper's Figures 5, 6 and 12.
    ///
    /// # Panics
    ///
    /// Panics when the device has no kernel for the pair (the
    /// microbenchmark would have nothing to run).
    #[must_use]
    pub fn sweep(
        &self,
        device: &DeviceProfile,
        arch: ArchId,
        proc: ProcessorKind,
    ) -> Vec<ProbePoint> {
        let kernel = device
            .kernel(arch, proc)
            .unwrap_or_else(|| panic!("device has no kernel for {arch}/{proc}"));
        let mut rng = SimRng::seed_from(
            NOISE_SEED
                .wrapping_add(u64::from(arch.0) << 8)
                .wrapping_add(proc as u64),
        );
        (1..=MAX_PROBE_BATCH)
            .map(|n| {
                let avg: f64 = (0..REPETITIONS)
                    .map(|_| kernel.latency.latency_ms(n) * rng.jitter(NOISE))
                    .sum::<f64>()
                    / f64::from(REPETITIONS);
                ProbePoint {
                    batch: n,
                    latency_ms: avg,
                    footprint: kernel.memory.footprint(n),
                }
            })
            .collect()
    }

    /// Derives the maximum useful batch size from a sweep: the smallest
    /// batch whose average per-request latency is within 2 % of the
    /// best average observed (§4.5 — "achieved when the average latency
    /// plateaus").
    #[must_use]
    pub fn max_batch(&self, points: &[ProbePoint]) -> u32 {
        let best = points
            .iter()
            .map(|p| p.latency_ms / f64::from(p.batch))
            .fold(f64::INFINITY, f64::min);
        points
            .iter()
            .find(|p| p.latency_ms / f64::from(p.batch) <= best * (1.0 + PLATEAU_THRESHOLD))
            .map_or(1, |p| p.batch)
    }

    /// Fits `K` and `B` on the pre-plateau (linear) region of a sweep.
    /// Falls back to a two-point estimate when the region is degenerate.
    #[must_use]
    pub fn fit_kb(&self, points: &[ProbePoint], max_batch: u32) -> (f64, f64, f64) {
        let linear: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.batch <= max_batch)
            .map(|p| (f64::from(p.batch), p.latency_ms))
            .collect();
        if let Some(fit) = linear_fit(&linear) {
            (fit.slope.max(0.0), fit.intercept.max(0.0), fit.r_squared)
        } else if let Some(p) = points.first() {
            (0.0, p.latency_ms, 0.0)
        } else {
            (0.0, 0.0, 0.0)
        }
    }

    /// Checks that `device` has a kernel for every architecture of
    /// `model` on both processors — the pairs [`Profiler::profile`]
    /// sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingKernel`] for the first pair without
    /// one.
    pub fn check_kernels(
        &self,
        device: &DeviceProfile,
        model: &CoeModel,
    ) -> Result<(), EngineError> {
        for arch in model.archs() {
            for proc in ProcessorKind::ALL {
                if device.kernel(arch.id(), proc).is_none() {
                    return Err(EngineError::MissingKernel(arch.id(), proc));
                }
            }
        }
        Ok(())
    }

    /// Profiles a full device/model combination and assembles the
    /// performance matrix.
    ///
    /// # Panics
    ///
    /// Panics when a model architecture lacks a kernel on either
    /// processor of the device — the deployment would be unservable;
    /// [`Profiler::check_kernels`] reports that case as an error.
    #[must_use]
    pub fn profile(
        &self,
        device: &DeviceProfile,
        model: &CoeModel,
        usage: UsageSource<'_>,
    ) -> PerfMatrix {
        let mut entries = BTreeMap::new();
        for arch in model.archs() {
            for proc in ProcessorKind::ALL {
                let points = self.sweep(device, arch.id(), proc);
                let max_batch = self.max_batch(&points);
                let (k_ms, b_ms, r_squared) = self.fit_kb(&points, max_batch);
                let kernel = device
                    .kernel(arch.id(), proc)
                    .expect("sweep already verified the kernel");
                let weights = arch.weights();
                let (load_from_ssd, load_from_cpu) = match proc {
                    ProcessorKind::Gpu => (
                        device.transfer_duration(weights, TransferRoute::SsdToGpu),
                        device.transfer_duration(weights, TransferRoute::CpuToGpu),
                    ),
                    ProcessorKind::Cpu => (
                        device.transfer_duration(weights, TransferRoute::SsdToCpu),
                        SimSpan::ZERO,
                    ),
                };
                entries.insert(
                    (arch.id(), proc),
                    PerfEntry {
                        k_ms,
                        b_ms,
                        r_squared,
                        max_batch,
                        load_from_ssd,
                        load_from_cpu,
                        workspace: kernel.memory.workspace,
                        per_item: kernel.memory.per_item,
                        weights,
                    },
                );
            }
        }

        let usage_probs = match usage {
            UsageSource::Declared => model.experts().iter().map(|e| e.usage_prob()).collect(),
            UsageSource::Empirical(stream) => estimate_usage(model, stream),
        };
        let memory_scores = (0..model.num_experts() as u32)
            .map(|i| model.memory_score(ExpertId(i)))
            .collect();
        PerfMatrix::new(device.name(), entries, usage_probs, memory_scores)
    }
}

/// Empirical usage estimation: the fraction of sample requests whose
/// chain includes each expert (§4.5's "run the CoE routing on a small,
/// real-world sample dataset").
#[must_use]
pub fn estimate_usage(model: &CoeModel, stream: &RequestStream) -> Vec<f64> {
    let mut counts = vec![0u64; model.num_experts()];
    for job in stream.jobs() {
        for stage in &job.stages {
            if stage.index() < counts.len() {
                counts[stage.index()] += 1;
            }
        }
    }
    let n = stream.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::devices;
    use coserve_model::prelude::*;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::StreamOrder;
    use coserve_workload::task::TaskSpec;

    fn board_model() -> (BoardSpec, CoeModel) {
        let board = BoardSpec::synthetic("pf", 24, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        (board, model)
    }

    #[test]
    fn sweep_produces_monotone_latencies() {
        let device = devices::numa_rtx3080ti();
        let p = Profiler::with_defaults();
        let points = p.sweep(&device, RESNET101, ProcessorKind::Gpu);
        assert_eq!(points.len(), 32);
        // Latency grows with batch (allowing 2x noise amplitude slack).
        for w in points.windows(2) {
            assert!(w[1].latency_ms > w[0].latency_ms * 0.97);
            assert!(w[1].footprint > w[0].footprint);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let device = devices::numa_rtx3080ti();
        let p = Profiler::with_defaults();
        let a = p.sweep(&device, RESNET101, ProcessorKind::Gpu);
        let b = p.sweep(&device, RESNET101, ProcessorKind::Gpu);
        assert_eq!(a, b);
    }

    #[test]
    fn max_batch_lands_near_ground_truth_saturation() {
        let device = devices::numa_rtx3080ti();
        let p = Profiler::with_defaults();
        let points = p.sweep(&device, RESNET101, ProcessorKind::Gpu);
        let mb = p.max_batch(&points);
        // Ground truth saturation is 16.
        assert!((12..=20).contains(&mb), "max batch {mb}");
        let uma = devices::uma_apple_m2();
        let pts = p.sweep(&uma, RESNET101, ProcessorKind::Gpu);
        let mb_uma = p.max_batch(&pts);
        assert!((4..=8).contains(&mb_uma), "UMA max batch {mb_uma}");
    }

    #[test]
    fn fit_recovers_ground_truth_k_and_b() {
        let device = devices::numa_rtx3080ti();
        let p = Profiler::with_defaults();
        let points = p.sweep(&device, RESNET101, ProcessorKind::Gpu);
        let mb = p.max_batch(&points);
        let (k, b, r2) = p.fit_kb(&points, mb);
        // Ground truth: K = 1.1, B = 8.0.
        assert!((k - 1.1).abs() < 0.15, "K {k}");
        assert!((b - 8.0).abs() < 1.0, "B {b}");
        assert!(r2 > 0.97, "r² {r2}");
    }

    #[test]
    fn profile_covers_all_archs_and_processors() {
        let device = devices::numa_rtx3080ti();
        let (_, model) = board_model();
        let matrix = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        assert_eq!(matrix.entries().count(), 6); // 3 archs × 2 procs
        assert_eq!(matrix.num_experts(), model.num_experts());
        let e = matrix.expect_entry(RESNET101, ProcessorKind::Gpu);
        assert!(e.load_from_ssd > e.load_from_cpu);
        let cpu = matrix.expect_entry(RESNET101, ProcessorKind::Cpu);
        assert_eq!(cpu.load_from_cpu, SimSpan::ZERO);
        assert!(cpu.k_ms > e.k_ms, "CPU slower than GPU");
    }

    #[test]
    fn declared_usage_matches_model() {
        let device = devices::numa_rtx3080ti();
        let (_, model) = board_model();
        let matrix = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        for i in 0..model.num_experts() as u32 {
            assert_eq!(
                matrix.usage_prob(ExpertId(i)),
                model.expert(ExpertId(i)).usage_prob()
            );
        }
    }

    #[test]
    fn empirical_usage_approximates_declared() {
        let device = devices::numa_rtx3080ti();
        let (board, model) = board_model();
        let stream = RequestStream::generate(
            "sample",
            &board,
            &model,
            4000,
            coserve_sim::time::SimSpan::from_millis(4),
            StreamOrder::Iid,
            42,
        );
        let matrix =
            Profiler::with_defaults().profile(&device, &model, UsageSource::Empirical(&stream));
        // The most popular classifier's empirical frequency tracks its
        // exact probability.
        let declared = model.expert(ExpertId(0)).usage_prob();
        let est = matrix.usage_prob(ExpertId(0));
        assert!(
            (est - declared).abs() < 0.05,
            "estimate {est:.3} vs declared {declared:.3}"
        );
    }

    #[test]
    fn profile_of_paper_task_is_fast_and_complete() {
        let device = devices::uma_apple_m2();
        let task = TaskSpec::a1();
        let model = task.build_model().unwrap();
        let matrix = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        assert_eq!(matrix.num_experts(), 370);
        assert_eq!(matrix.experts_by_usage().len(), 370);
    }

    #[test]
    #[should_panic(expected = "no kernel")]
    fn sweep_without_kernel_panics() {
        let device = DeviceProfile::numa_rtx3080ti(); // bare hardware, no kernels
        let _ = Profiler::with_defaults().sweep(&device, RESNET101, ProcessorKind::Gpu);
    }

    #[test]
    fn estimate_usage_counts_all_stages() {
        let (board, model) = board_model();
        let stream = RequestStream::generate(
            "s",
            &board,
            &model,
            500,
            coserve_sim::time::SimSpan::from_millis(4),
            StreamOrder::Iid,
            7,
        );
        let usage = estimate_usage(&model, &stream);
        let total: f64 = usage.iter().sum();
        // Every job contributes ≥1 stage, detected jobs contribute 2.
        assert!(total >= 1.0);
        assert!(total <= 2.0);
    }
}
