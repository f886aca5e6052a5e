//! The serving-system facade.
//!
//! [`ServingSystem`] ties the pieces together the way Figure 7 does:
//! offline profiling produces the performance matrix, initialization
//! creates executors and preloads experts, and `serve` runs the online
//! phase. Baseline systems are the same facade with different
//! [`SystemConfig`]s.
//!
//! ```no_run
//! use coserve_core::prelude::*;
//! use coserve_model::devices;
//! use coserve_workload::task::TaskSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let device = devices::numa_rtx3080ti();
//! let task = TaskSpec::a1();
//! let model = task.build_model()?;
//! let config = presets::coserve(&device);
//! let system = ServingSystem::new(device, model, config)?;
//! let report = system.serve(&task.stream(system.model()));
//! println!("{}", report.summary_line());
//! # Ok(())
//! # }
//! ```

use coserve_metrics::report::RunReport;
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_workload::stream::RequestStream;

use crate::config::SystemConfig;
use crate::engine::{Engine, EngineError, MemoryLayout};
use crate::perf::PerfMatrix;
use crate::profiler::{Profiler, UsageSource};

/// A ready-to-serve system: device, model, offline measurements and
/// configuration.
#[derive(Debug, Clone)]
pub struct ServingSystem {
    device: DeviceProfile,
    model: CoeModel,
    perf: PerfMatrix,
    config: SystemConfig,
}

impl ServingSystem {
    /// Builds a system, running the offline profiler with declared
    /// usage probabilities (§4.5's predefined-rules case).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingKernel`] when the device lacks a
    /// kernel for one of the model's architectures on either processor
    /// (the profiler measures both), and otherwise any error
    /// [`ServingSystem::with_matrix`] returns for the configuration.
    pub fn new(
        device: DeviceProfile,
        model: CoeModel,
        config: SystemConfig,
    ) -> Result<Self, EngineError> {
        let profiler = Profiler::with_defaults();
        profiler.check_kernels(&device, &model)?;
        let perf = profiler.profile(&device, &model, UsageSource::Declared);
        Self::with_matrix(device, model, perf, config)
    }

    /// Builds a system from an existing performance matrix (e.g. to
    /// share one profiling pass across many configurations).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the matrix or device does not cover
    /// the configuration.
    pub fn with_matrix(
        device: DeviceProfile,
        model: CoeModel,
        perf: PerfMatrix,
        config: SystemConfig,
    ) -> Result<Self, EngineError> {
        // Validate eagerly; Engine::new borrows, so scope the check.
        Engine::new(&device, &model, &perf, &config)?;
        Ok(ServingSystem {
            device,
            model,
            perf,
            config,
        })
    }

    /// The device profile.
    #[must_use]
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The CoE model.
    #[must_use]
    pub fn model(&self) -> &CoeModel {
        &self.model
    }

    /// The offline measurements.
    #[must_use]
    pub fn perf(&self) -> &PerfMatrix {
        &self.perf
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The memory layout initialization would use.
    #[must_use]
    pub fn memory_layout(&self) -> MemoryLayout {
        self.engine().memory_layout()
    }

    /// Serves a request stream to completion.
    #[must_use]
    pub fn serve(&self, stream: &RequestStream) -> RunReport {
        self.engine().run(stream)
    }

    /// Serves `stream` through an engine built from `config` instead of
    /// the system's own configuration — the batch path of the open-loop
    /// facade, which overrides only the online knobs. (Cluster nodes do
    /// not serve through here: each keeps one engine session open
    /// across the runtime's control ticks.)
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `config` is not servable on this
    /// system's device/model/matrix.
    pub fn serve_configured(
        &self,
        stream: &RequestStream,
        config: &SystemConfig,
    ) -> Result<RunReport, EngineError> {
        Ok(Engine::new(&self.device, &self.model, &self.perf, config)?.run(stream))
    }

    /// Opens a re-entrant serving session against the system's own
    /// configuration: submit jobs and poll completions incrementally
    /// instead of consuming a whole stream (see
    /// [`EngineSession`](crate::engine::EngineSession)). The session
    /// borrows the system.
    #[must_use]
    pub fn session(&self, label: impl Into<String>) -> crate::engine::EngineSession<'_> {
        self.engine().session(label)
    }

    /// Opens a re-entrant session through an engine built from
    /// `config` instead of the system's own configuration — the
    /// session equivalent of [`ServingSystem::serve_configured`].
    /// `config` must outlive the session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `config` is not servable on this
    /// system's device/model/matrix.
    pub fn session_configured<'a>(
        &'a self,
        label: impl Into<String>,
        config: &'a SystemConfig,
    ) -> Result<crate::engine::EngineSession<'a>, EngineError> {
        Ok(Engine::new(&self.device, &self.model, &self.perf, config)?.session(label))
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(&self.device, &self.model, &self.perf, &self.config)
            .expect("validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use coserve_model::devices;
    use coserve_workload::task::TaskSpec;

    #[test]
    fn facade_round_trip() {
        let device = devices::numa_rtx3080ti();
        let task = TaskSpec::a1().scaled(0.02); // 50 requests
        let model = task.build_model().unwrap();
        let config = presets::coserve(&device);
        let system = ServingSystem::new(device, model, config).unwrap();
        let stream = task.stream(system.model());
        let report = system.serve(&stream);
        assert_eq!(report.completed, 50);
        assert_eq!(report.system, "CoServe");
        assert!(system.memory_layout().cache > coserve_sim::memory::Bytes::ZERO);
        assert_eq!(system.perf().num_experts(), system.model().num_experts());
    }

    #[test]
    fn serve_configured_matches_serve_for_own_config() {
        let device = devices::numa_rtx3080ti();
        let task = TaskSpec::a1().scaled(0.02);
        let model = task.build_model().unwrap();
        let system =
            ServingSystem::new(device, model, presets::coserve(&devices::numa_rtx3080ti()))
                .unwrap();
        let stream = task.stream(system.model());
        let direct = system.serve(&stream);
        let via_helper = system
            .serve_configured(&stream, &system.config().clone())
            .unwrap();
        assert_eq!(direct, via_helper);
        // A different-but-valid override (CPU-only executors) also
        // serves through the helper.
        let mut cpu_only = system.config().clone();
        cpu_only.executors = vec![coserve_sim::device::ProcessorKind::Cpu];
        assert!(system.serve_configured(&stream, &cpu_only).is_ok());
        // Invalid overrides surface as errors, not panics.
        let mut unknown = system.config().clone();
        unknown.preload_order = Some(vec![coserve_model::expert::ExpertId(u32::MAX)]);
        assert!(system.serve_configured(&stream, &unknown).is_err());
    }

    #[test]
    fn construction_fails_without_kernels() {
        let bare = coserve_sim::device::DeviceProfile::numa_rtx3080ti();
        let task = TaskSpec::a1().scaled(0.01);
        let model = task.build_model().unwrap();
        let config = presets::coserve(&bare);
        // Profiling itself needs kernels; with_matrix path reports the
        // engine error instead of panicking.
        let perf = PerfMatrix::from_model_with(&model, |_, _| None);
        assert!(ServingSystem::with_matrix(bare, model, perf, config).is_err());
    }

    #[test]
    fn new_reports_a_device_without_kernels() {
        let bare = coserve_sim::device::DeviceProfile::numa_rtx3080ti();
        let model = TaskSpec::a1().scaled(0.01).build_model().unwrap();
        let config = presets::coserve(&devices::numa_rtx3080ti());
        let err = ServingSystem::new(bare, model, config).unwrap_err();
        assert!(matches!(err, EngineError::MissingKernel(_, _)), "{err}");
    }
}
