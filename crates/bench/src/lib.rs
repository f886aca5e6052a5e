//! # coserve-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! CoServe paper, listed once in [`figures::REGISTRY`]. `all_figures`
//! runs the lot, or `all_figures NAME…` the named entries: it prints
//! the paper-style rows to stdout and writes a CSV per table (and a
//! JSON per artifact) into the output directory (`target/figures/`
//! under the workspace root by default, `COSERVE_OUT_DIR` to override).
//!
//! Scaling: the full evaluation (2,500–3,500 requests per task) runs in
//! seconds in release mode; set `COSERVE_SCALE=0.1` to smoke-test the
//! harness quickly (integration tests do).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod perf_report;
pub mod sweep;

use std::path::PathBuf;

use coserve_baselines::suite::evaluation_suite;
use coserve_core::autotune::TunedSystem;
use coserve_core::engine::Engine;
use coserve_core::perf::PerfMatrix;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_metrics::report::RunReport;
use coserve_model::coe::CoeModel;
use coserve_model::devices;
use coserve_sim::device::DeviceProfile;
use coserve_workload::stream::RequestStream;
use coserve_workload::task::TaskSpec;

/// Where CSV outputs land: `COSERVE_OUT_DIR` when set, otherwise
/// `target/figures/` under the workspace root. The default is anchored to
/// the workspace (not the current working directory) so the harness
/// binaries and tests behave the same from any invocation path.
#[must_use]
pub fn out_dir() -> PathBuf {
    coserve_metrics::output::out_dir_anchored(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// The global workload scale factor (`COSERVE_SCALE`, default 1.0).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("COSERVE_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && s.is_finite())
        .unwrap_or(1.0)
}

/// Number of requests used for offline tuning samples, after scaling.
#[must_use]
pub fn tuning_sample_size() -> usize {
    ((1500.0 * scale()).round() as usize).max(40)
}

/// The two evaluation devices in paper order (NUMA, UMA).
#[must_use]
pub fn paper_devices() -> Vec<DeviceProfile> {
    devices::paper_devices()
}

/// The four evaluation tasks in paper order, scaled by
/// [`scale`].
#[must_use]
pub fn paper_tasks() -> Vec<TaskSpec> {
    TaskSpec::paper_tasks()
        .into_iter()
        .map(|t| {
            if (scale() - 1.0).abs() < 1e-9 {
                t
            } else {
                t.scaled(scale())
            }
        })
        .collect()
}

/// A fully prepared experiment context for one (device, task) cell:
/// model, offline measurements, evaluation stream and tuning sample.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The device under evaluation.
    pub device: DeviceProfile,
    /// The task under evaluation.
    pub task: TaskSpec,
    /// The task's CoE model.
    pub model: CoeModel,
    /// The offline performance matrix.
    pub perf: PerfMatrix,
    /// The full evaluation stream.
    pub stream: RequestStream,
    /// The smaller offline tuning sample.
    pub sample: RequestStream,
}

impl Bench {
    /// Prepares the context: builds the model, runs the offline
    /// profiler, materializes the evaluation stream and the tuning
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics when the board spec fails validation — unreachable for
    /// the built-in tasks.
    #[must_use]
    pub fn prepare(device: DeviceProfile, task: TaskSpec) -> Self {
        let model = task.build_model().expect("built-in boards validate");
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let stream = task.stream(&model);
        let sample = task.sample(tuning_sample_size()).stream(&model);
        Bench {
            device,
            task,
            model,
            perf,
            stream,
            sample,
        }
    }

    /// Runs one configuration on the evaluation stream.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is not servable on this device —
    /// a harness bug, not an input condition.
    #[must_use]
    pub fn run(&self, config: &coserve_core::config::SystemConfig) -> RunReport {
        Engine::new(&self.device, &self.model, &self.perf, config)
            .expect("harness configs are valid")
            .run(&self.stream)
    }

    /// Runs one configuration on the evaluation stream with a ring
    /// tracer installed and returns the report plus the drained trace
    /// events. The report is bit-identical to [`Bench::run`] — the
    /// tracer observes the engine, it never perturbs it.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is not servable on this device —
    /// a harness bug, not an input condition.
    #[must_use]
    pub fn run_traced(
        &self,
        config: &coserve_core::config::SystemConfig,
    ) -> (RunReport, Vec<coserve_trace::TraceEvent>) {
        let engine = Engine::new(&self.device, &self.model, &self.perf, config)
            .expect("harness configs are valid");
        let mut session = engine.session(self.stream.name());
        let _ = session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
        for job in self.stream.jobs() {
            session
                .submit(job.arrival, &job.stages)
                .expect("stream jobs reference experts of the engine's model");
        }
        session.pump();
        let events = session.tracer_mut().drain();
        (session.into_report(), events)
    }

    /// Runs the five-system evaluation suite (Figures 13–14) and
    /// returns the reports in suite order plus the tuning traces.
    #[must_use]
    pub fn run_suite(&self) -> (Vec<RunReport>, TunedSystem) {
        let (systems, tuned) =
            evaluation_suite(&self.device, &self.model, &self.perf, &self.sample);
        let reports = systems.iter().map(|c| self.run(c)).collect();
        (reports, tuned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // The test environment may set COSERVE_SCALE; only check sanity.
        assert!(scale() > 0.0);
        assert!(tuning_sample_size() >= 40);
    }

    #[test]
    fn paper_matrix_shape() {
        assert_eq!(paper_devices().len(), 2);
        assert_eq!(paper_tasks().len(), 4);
    }

    #[test]
    fn out_dir_default_is_workspace_anchored() {
        // Other tests in this binary don't set COSERVE_OUT_DIR; when the
        // harness environment does, the override must win verbatim.
        let dir = out_dir();
        match std::env::var_os("COSERVE_OUT_DIR") {
            Some(v) => assert_eq!(dir, PathBuf::from(v)),
            None => {
                assert!(dir.is_absolute(), "default must not depend on CWD");
                assert!(dir.ends_with("target/figures"));
                // The anchor must be the workspace root, not some other
                // ancestor: <root>/Cargo.toml must exist two levels up
                // from <root>/target/figures.
                let root = dir.parent().and_then(|p| p.parent()).unwrap();
                assert!(
                    root.join("Cargo.toml").is_file(),
                    "out_dir() anchored outside the workspace: {}",
                    dir.display()
                );
            }
        }
    }
}
