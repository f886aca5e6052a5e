//! The full evaluation suite (Figures 13–14).
//!
//! Convenience constructors assembling the five systems the paper's
//! headline comparison plots: the three Samba-CoE baselines plus
//! CoServe Best (autotuned offline) and CoServe Casual.

use coserve_core::autotune::{tune, TunedSystem};
use coserve_core::config::SystemConfig;
use coserve_core::perf::PerfMatrix;
use coserve_core::presets;
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_workload::stream::RequestStream;

use crate::samba::all_baselines;

/// The five systems of Figures 13–14, in presentation order. The
/// CoServe Best entry comes from the offline autotuner ([`tune`], with
/// the paper's decay-window settings) run on `tuning_sample`
/// (§4.4–§4.5); the returned [`TunedSystem`] carries the search traces
/// for Figures 17–18.
#[must_use]
pub fn evaluation_suite(
    device: &DeviceProfile,
    model: &CoeModel,
    perf: &PerfMatrix,
    tuning_sample: &RequestStream,
) -> (Vec<SystemConfig>, TunedSystem) {
    let tuned = tune(device, model, perf, tuning_sample);
    let mut systems = all_baselines(device);
    systems.push(tuned.config.clone());
    systems.push(presets::coserve_casual(device));
    (systems, tuned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::StreamOrder;

    #[test]
    fn suite_builds_five_systems_in_order() {
        let board = BoardSpec::synthetic("suite", 40, 3, 1.2, 50.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let sample = RequestStream::generate(
            "sample",
            &board,
            &model,
            150,
            coserve_sim::time::SimSpan::from_millis(4),
            StreamOrder::Iid,
            3,
        );
        let (systems, tuned) = evaluation_suite(&device, &model, &perf, &sample);
        let names: Vec<&str> = systems.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Samba-CoE",
                "Samba-CoE FIFO",
                "Samba-CoE Parallel",
                "CoServe Best",
                "CoServe Casual",
            ]
        );
        // Either the window target was adopted or the validation guard
        // fell back to Casual's fraction split; both are valid Best
        // configs.
        if tuned.config.gpu_resident_experts.is_none() {
            assert_eq!(
                tuned.config,
                presets::coserve_casual(&device).renamed("CoServe Best")
            );
        }
        assert!(!tuned.window.trials.is_empty());
        assert!(!tuned.executor_trials.is_empty());
    }
}
