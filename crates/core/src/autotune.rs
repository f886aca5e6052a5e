//! Offline autotuning: memory allocation and executor counts.
//!
//! Two searches run in the offline phase on a smaller representative
//! workload:
//!
//! * the **decay-window search** (§4.4) slides a shrinking window over
//!   the expert-usage CDF, measures throughput with the window's upper
//!   bound of experts kept GPU-resident, fits a linear upward trend to
//!   the first few measurements (Eq. 2) and stops when reality deviates
//!   from the trend by more than the error margin (Eq. 3) — throughput
//!   has started to drop because intermediate-result memory is being
//!   squeezed. The chosen resident count is drawn from the final window.
//! * the **executor-count search** (Figure 17) simply measures a small
//!   grid of GPU/CPU executor counts and keeps the best.

use coserve_metrics::stats::{linear_fit, LinFit};
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_sim::rng::SimRng;
use coserve_workload::stream::RequestStream;

use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::perf::PerfMatrix;
use crate::presets;

/// The expert-usage cumulative distribution (Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct UsageCdf {
    cumulative: Vec<f64>,
}

impl UsageCdf {
    /// Builds the CDF from a performance matrix: experts sorted by
    /// descending usage probability, cumulative mass normalized to 1.
    #[must_use]
    pub fn from_perf(perf: &PerfMatrix) -> Self {
        let mut probs: Vec<f64> = (0..perf.num_experts() as u32)
            .map(|i| perf.usage_prob(coserve_model::expert::ExpertId(i)))
            .collect();
        probs.sort_by(|a, b| b.partial_cmp(a).expect("finite probabilities"));
        let total: f64 = probs.iter().sum();
        let mut acc = 0.0;
        let cumulative = probs
            .iter()
            .map(|p| {
                acc += p;
                if total > 0.0 {
                    acc / total
                } else {
                    0.0
                }
            })
            .collect();
        UsageCdf { cumulative }
    }

    /// The fraction of usage covered by the `k` most used experts.
    #[must_use]
    pub fn coverage(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cumulative[(k - 1).min(self.cumulative.len() - 1)]
        }
    }

    /// Number of experts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the CDF is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// `(k, coverage)` points for plotting Figure 11.
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.cumulative
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i + 1) as f64, c))
            .collect()
    }
}

/// Initial window size of the decay-window search, as in the paper's
/// evaluation (§4.4); it also sets the decay factor (Eq. 1).
const INITIAL_WINDOW: f64 = 15.0;

/// Relative deviation from the trend that stops the slide (Eq. 3).
const ERROR_MARGIN: f64 = 0.05;

/// Number of leading trials the linear trend is fitted to (Eq. 2).
const FIT_POINTS: usize = 3;

/// Hard cap on window-search trials (a safety net).
const MAX_TRIALS: usize = 12;

/// Seed for the final in-window selection.
const SELECTION_SEED: u64 = 0x57AB;

/// One measured point of the window search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowTrial {
    /// Residents evaluated (the window's upper bound).
    pub residents: usize,
    /// Measured throughput on the sample workload, img/s.
    pub throughput: f64,
}

/// Outcome of the decay-window search.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSearchResult {
    /// Every measured point, in slide order (Figure 18's series).
    pub trials: Vec<WindowTrial>,
    /// The selected window `[lo, hi]` in resident-expert counts.
    pub selected: (usize, usize),
    /// The resident count chosen from the window.
    pub chosen: usize,
    /// The linear trend fitted to the leading trials, if enough points.
    pub fit: Option<LinFit>,
    /// The relative deviation that terminated the slide (0 when the
    /// search exhausted its trial budget instead).
    pub deviation: f64,
}

/// Runs the decay-window search on a sample stream, returning the
/// selected GPU-resident expert count.
///
/// `base` supplies everything but the resident-expert target (executor
/// counts, policies); each trial runs the engine with the target set to
/// the window's upper bound. The search uses the paper's settings: an
/// initial window of 15 experts, a linear trend fitted to the first
/// three trials, a 5 % error margin, and at most 12 trials.
///
/// # Panics
///
/// Panics if `base` has no GPU executors (there would be no GPU pool to
/// size).
#[must_use]
pub fn window_search(
    device: &DeviceProfile,
    model: &CoeModel,
    perf: &PerfMatrix,
    base: &SystemConfig,
    sample: &RequestStream,
) -> WindowSearchResult {
    assert!(
        base.gpu_executor_count() > 0,
        "window search needs GPU executors"
    );
    let decay = 1.0 - INITIAL_WINDOW / 100.0; // Eq. 1

    let throughput_at = |residents: usize| -> f64 {
        let mut config = base.clone();
        config.gpu_resident_experts = Some(residents);
        let engine = Engine::new(device, model, perf, &config).expect("base config is valid");
        engine.run(sample).throughput_ips()
    };

    let max_residents = model.num_experts();
    let mut trials: Vec<WindowTrial> = Vec::new();
    let mut lo = 0.0f64;
    let mut size = INITIAL_WINDOW;
    let mut prev_window = (0usize, INITIAL_WINDOW.round() as usize);
    let mut fit: Option<LinFit> = None;
    let mut deviation = 0.0;
    let mut selected;

    loop {
        let hi = lo + size;
        let residents = (hi.round() as usize).clamp(1, max_residents);
        let throughput = throughput_at(residents);
        trials.push(WindowTrial {
            residents,
            throughput,
        });
        let window = (lo.round() as usize, residents);

        if trials.len() > FIT_POINTS {
            // Eq. 2: linear trend over the first N trials.
            let lead: Vec<(f64, f64)> = trials[..FIT_POINTS]
                .iter()
                .enumerate()
                .map(|(i, t)| ((i + 1) as f64, t.throughput))
                .collect();
            fit = linear_fit(&lead);
            if let Some(f) = fit {
                let expected = f.predict(trials.len() as f64);
                let actual = trials.last().expect("non-empty").throughput;
                if expected > 0.0 {
                    deviation = (expected - actual) / expected;
                    // Eq. 3: reality fell below the trend.
                    if deviation > ERROR_MARGIN {
                        selected = prev_window;
                        break;
                    }
                }
            }
        }
        selected = window;
        prev_window = window;
        lo = hi;
        size *= decay;
        if trials.len() >= MAX_TRIALS || residents >= max_residents {
            break;
        }
    }

    // "CoServe randomly selects a value within the window" — seeded.
    let (w_lo, w_hi) = selected;
    let lo_bound = w_lo.max(1) as u64;
    let hi_bound = (w_hi.max(w_lo.max(1))) as u64;
    let mut rng = SimRng::seed_from(SELECTION_SEED);
    let chosen = rng.range_inclusive(lo_bound, hi_bound) as usize;

    WindowSearchResult {
        trials,
        selected: (w_lo.max(1), w_hi),
        chosen,
        fit,
        deviation,
    }
}

/// One measured executor configuration (Figure 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorTrial {
    /// GPU executors.
    pub gpus: usize,
    /// CPU executors.
    pub cpus: usize,
    /// Measured throughput on the sample workload, img/s.
    pub throughput: f64,
}

/// Measures throughput for each `(gpus, cpus)` candidate on the sample
/// stream (Figure 17's sweep) and returns the trials in input order.
#[must_use]
pub fn executor_search(
    device: &DeviceProfile,
    model: &CoeModel,
    perf: &PerfMatrix,
    candidates: &[(usize, usize)],
    sample: &RequestStream,
) -> Vec<ExecutorTrial> {
    candidates
        .iter()
        .map(|&(gpus, cpus)| {
            let config = presets::coserve_with(device, "search", gpus, cpus, None);
            let engine = Engine::new(device, model, perf, &config).expect("searchable config");
            ExecutorTrial {
                gpus,
                cpus,
                throughput: engine.run(sample).throughput_ips(),
            }
        })
        .collect()
}

/// The standard candidate grid the paper sweeps in Figure 17:
/// 1G..=5G with one CPU executor, plus the best-G with two.
#[must_use]
pub fn standard_executor_candidates() -> Vec<(usize, usize)> {
    vec![(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]
}

/// A fully tuned "CoServe Best" configuration plus the search traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedSystem {
    /// The resulting configuration.
    pub config: SystemConfig,
    /// The executor-count sweep.
    pub executor_trials: Vec<ExecutorTrial>,
    /// The window-search trace.
    pub window: WindowSearchResult,
}

/// Runs both offline searches and assembles "CoServe Best" (§5.2):
/// executor counts first, then the memory window
/// ([`window_search`]) with the winning executor counts.
#[must_use]
pub fn tune(
    device: &DeviceProfile,
    model: &CoeModel,
    perf: &PerfMatrix,
    sample: &RequestStream,
) -> TunedSystem {
    // Ties between measured configurations go to the one with fewer
    // executors: identical sample throughput means the extra processes
    // only add overhead risk on the full task.
    fn first_strict_max(trials: &[ExecutorTrial]) -> ExecutorTrial {
        trials
            .iter()
            .copied()
            .reduce(|best, t| {
                if t.throughput > best.throughput {
                    t
                } else {
                    best
                }
            })
            .expect("candidate list is non-empty")
    }
    let mut candidates = standard_executor_candidates();
    let trials = executor_search(device, model, perf, &candidates, sample);
    let best = first_strict_max(&trials);
    // Also probe a second CPU executor at the winning GPU count.
    candidates.push((best.gpus, 2));
    let extra = executor_search(
        device,
        model,
        perf,
        &candidates[candidates.len() - 1..],
        sample,
    );
    let mut all_trials = trials;
    all_trials.extend(extra);
    let best = first_strict_max(&all_trials);

    let base = presets::coserve_with(device, "CoServe Best", best.gpus, best.cpus, None);
    let window = window_search(device, model, perf, &base, sample);
    let tuned = presets::coserve_with(
        device,
        "CoServe Best",
        best.gpus,
        best.cpus,
        Some(window.chosen),
    );
    // Validation guard: the offline phase verifies the searched
    // configuration against the fraction-based fallback on the sample
    // and keeps whichever measured better, so "Best" never regresses
    // below an untuned split because of sample noise.
    let fallback = presets::coserve_casual(device).renamed("CoServe Best");
    let measure = |config: &SystemConfig| -> f64 {
        Engine::new(device, model, perf, config)
            .expect("tuned configs are valid")
            .run(sample)
            .throughput_ips()
    };
    let config = if measure(&fallback) > measure(&tuned) {
        fallback
    } else {
        tuned
    };
    TunedSystem {
        config,
        executor_trials: all_trials,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::StreamOrder;

    fn setup() -> (DeviceProfile, CoeModel, PerfMatrix, RequestStream) {
        let board = BoardSpec::synthetic("tune", 60, 4, 1.2, 60.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let sample = RequestStream::generate(
            "sample",
            &board,
            &model,
            220,
            coserve_sim::time::SimSpan::from_millis(4),
            StreamOrder::Iid,
            9,
        );
        (device, model, perf, sample)
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let (_, _, perf, _) = setup();
        let cdf = UsageCdf::from_perf(&perf);
        assert_eq!(cdf.len(), perf.num_experts());
        assert!(!cdf.is_empty());
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((cdf.coverage(cdf.len()) - 1.0).abs() < 1e-9);
        assert_eq!(cdf.coverage(0), 0.0);
        assert!(cdf.coverage(10) > 10.0 / cdf.len() as f64, "skew exists");
    }

    #[test]
    fn window_search_produces_sane_selection() {
        let (device, model, perf, sample) = setup();
        let base = presets::coserve_with(&device, "base", 2, 1, None);
        let result = window_search(&device, &model, &perf, &base, &sample);
        assert!(!result.trials.is_empty());
        assert!(result.trials.len() <= MAX_TRIALS);
        // Chosen value lies inside the selected window.
        assert!(result.chosen >= result.selected.0);
        assert!(result.chosen <= result.selected.1.max(result.selected.0));
        // Window sizes decay: spacing between consecutive trial uppers
        // shrinks.
        if result.trials.len() >= 3 {
            let d1 = result.trials[1].residents as i64 - result.trials[0].residents as i64;
            let d2 = result.trials[2].residents as i64 - result.trials[1].residents as i64;
            assert!(d2 <= d1, "window did not decay: {d1} then {d2}");
        }
    }

    #[test]
    fn window_search_is_deterministic() {
        let (device, model, perf, sample) = setup();
        let base = presets::coserve_with(&device, "base", 2, 1, None);
        let a = window_search(&device, &model, &perf, &base, &sample);
        let b = window_search(&device, &model, &perf, &base, &sample);
        assert_eq!(a, b);
    }

    #[test]
    fn executor_search_measures_all_candidates() {
        let (device, model, perf, sample) = setup();
        let trials = executor_search(&device, &model, &perf, &[(1, 1), (2, 1)], &sample);
        assert_eq!(trials.len(), 2);
        assert!(trials.iter().all(|t| t.throughput > 0.0));
        assert_eq!(trials[0].gpus, 1);
        assert_eq!(trials[1].gpus, 2);
    }

    #[test]
    fn tune_assembles_best_config() {
        let (device, model, perf, sample) = setup();
        let tuned = tune(&device, &model, &perf, &sample);
        assert_eq!(tuned.config.name, "CoServe Best");
        assert!(tuned.config.gpu_executor_count() >= 1);
        assert_eq!(tuned.executor_trials.len(), 6); // 5 grid + 1 extra

        // Either the window target was adopted, or the validation guard
        // fell back to the fraction-based split.
        match tuned.config.gpu_resident_experts {
            Some(chosen) => assert_eq!(chosen, tuned.window.chosen),
            None => assert_eq!(
                tuned.config,
                presets::coserve_casual(&device).renamed("CoServe Best")
            ),
        }
    }

    #[test]
    #[should_panic(expected = "GPU executors")]
    fn window_search_requires_gpus() {
        let (device, model, perf, sample) = setup();
        let base = SystemConfig::builder("cpu-only").cpu_executors(1).build();
        let _ = window_search(&device, &model, &perf, &base, &sample);
    }
}
