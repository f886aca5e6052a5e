//! High-level open-loop online serving.
//!
//! [`serve_open_loop`] is the one-call entry point for the online
//! scenario the closed paper evaluation cannot express: requests arrive
//! on their own open-loop schedule (Poisson or bursty MMPP, not a
//! conveyor), executor queues are bounded, overload is shed through
//! admission control, and the report carries tail-latency percentiles
//! (p50/p90/p95/p99 per stage and end-to-end) plus drop accounting.
//!
//! Runs are fully deterministic: the same system, board, options and
//! seed produce a bit-identical [`RunReport`], so latency-vs-load
//! sweeps across systems compare byte-identical arrival schedules.

use coserve_cluster::ClusterSystem;
use coserve_core::config::AdmissionControl;
use coserve_core::presets::ONLINE_MAX_OVERTAKE;
use coserve_core::system::ServingSystem;
use coserve_metrics::cluster::ClusterReport;
use coserve_metrics::report::RunReport;
use coserve_model::coe::CoeModel;
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::{RequestStream, StreamOrder};

/// Options for one open-loop serving run. Input classes always arrive
/// IID ([`StreamOrder::Iid`]), and grouping may overtake a queued
/// request at most [`ONLINE_MAX_OVERTAKE`] times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopOptions {
    /// The arrival process (offered load and burstiness).
    pub process: ArrivalProcess,
    /// Number of requests to generate.
    pub requests: usize,
    /// Seed for the arrival schedule and stage pre-rolls.
    pub seed: u64,
    /// Bounded-queue admission control applied for the run.
    pub admission: AdmissionControl,
}

impl OpenLoopOptions {
    /// Defaults for a given arrival process: 1,000 requests, seed 7 and
    /// a 64-deep queue bound.
    #[must_use]
    pub fn new(process: ArrivalProcess) -> Self {
        OpenLoopOptions {
            process,
            requests: 1_000,
            seed: 7,
            admission: AdmissionControl::default(),
        }
    }

    /// Replaces the request count.
    #[must_use]
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Replaces the admission bound.
    #[must_use]
    pub fn admission(mut self, control: AdmissionControl) -> Self {
        self.admission = control;
        self
    }
}

/// Generates an open-loop request stream for `system`'s model and
/// serves it under bounded queues and admission control.
///
/// The system's configured policies (assignment, arranging, eviction,
/// resident-expert target, executor counts) are kept; only the online
/// knobs are overridden — the admission bound from `options` and the
/// overtake bound [`ONLINE_MAX_OVERTAKE`] — so any closed-loop
/// configuration (including the baselines) can be pushed through the
/// same open-loop harness.
///
/// # Panics
///
/// Panics if `options.requests` is zero, or if the overridden
/// configuration fails engine validation — impossible when `system`
/// was constructed normally, since the online knobs do not affect
/// validation.
#[must_use]
pub fn serve_open_loop(
    system: &ServingSystem,
    board: &BoardSpec,
    options: &OpenLoopOptions,
) -> RunReport {
    let stream = open_loop_stream(system.model(), board, options);
    let mut config = system.config().clone();
    config.admission = Some(options.admission);
    config.max_overtake = Some(ONLINE_MAX_OVERTAKE);
    system
        .serve_configured(&stream, &config)
        .expect("online knobs do not affect engine validation")
}

/// Generates an open-loop request stream for the cluster's model and
/// serves it across the fleet: the dispatcher routes every request by
/// expert residency and queue depth, charges fabric transfer time for
/// cross-node expert chains, and every node applies the same bounded
/// queues and admission control [`serve_open_loop`] applies on one
/// device. Deterministic: the same cluster, board, options and seed
/// produce a bit-identical [`ClusterReport`].
///
/// # Panics
///
/// Panics if `options.requests` is zero (streams cannot be empty).
#[must_use]
pub fn serve_cluster(
    cluster: &ClusterSystem,
    board: &BoardSpec,
    options: &OpenLoopOptions,
) -> ClusterReport {
    let stream = open_loop_stream(cluster.model(), board, options);
    cluster.serve_with_online(&stream, options.admission, ONLINE_MAX_OVERTAKE)
}

/// The request stream [`serve_open_loop`] and [`serve_cluster`] serve
/// for `model` — exposed so callers can inspect offered load, replay
/// the identical schedule through a custom engine configuration, or
/// drive the dynamic cluster runtime ([`ClusterSystem::serve_runtime`])
/// with it. It takes no serving configuration, so every system compared
/// on the same model, board and options sees the same arrivals.
#[must_use]
pub fn open_loop_stream(
    model: &CoeModel,
    board: &BoardSpec,
    options: &OpenLoopOptions,
) -> RequestStream {
    RequestStream::generate_open_loop(
        format!("open-loop {}", options.process),
        board,
        model,
        options.requests,
        options.process,
        StreamOrder::Iid,
        options.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_core::presets;
    use coserve_model::devices;

    fn small_setup() -> (ServingSystem, BoardSpec) {
        let board = BoardSpec::synthetic("open-loop", 24, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        (ServingSystem::new(device, model, config).unwrap(), board)
    }

    #[test]
    fn underload_completes_without_drops() {
        let (system, board) = small_setup();
        let options = OpenLoopOptions::new(ArrivalProcess::poisson(40.0)).requests(150);
        let report = serve_open_loop(&system, &board, &options);
        assert_eq!(report.submitted, 150);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.admitted, 150);
        let lat = report.latency_summary().unwrap();
        assert!(lat.is_finite());
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
    }

    #[test]
    fn overload_sheds_load_deterministically() {
        let (system, board) = small_setup();
        let options = OpenLoopOptions::new(ArrivalProcess::poisson(5_000.0))
            .requests(400)
            .admission(AdmissionControl::with_queue_capacity(8));
        let a = serve_open_loop(&system, &board, &options);
        assert!(a.dropped > 0, "5000 rps must overload the system");
        assert!(a.admitted > 0);
        assert_eq!(a.completed + a.failed + a.dropped, a.submitted);
        let b = serve_open_loop(&system, &board, &options);
        assert_eq!(a, b, "open-loop runs must be bit-identical");
    }

    #[test]
    fn cluster_facade_round_trip() {
        let board = BoardSpec::synthetic("cluster-open-loop", 24, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let cluster = ClusterSystem::homogeneous(
            2,
            &device,
            &presets::coserve(&device),
            &model,
            coserve_sim::network::LinkProfile::ethernet_10g(),
            coserve_cluster::ClusterOptions::default(),
        )
        .unwrap();
        let options = OpenLoopOptions::new(ArrivalProcess::poisson(100.0)).requests(120);
        let a = serve_cluster(&cluster, &board, &options);
        assert_eq!(a.submitted, 120);
        assert_eq!(a.completed + a.failed + a.dropped, a.submitted);
        assert_eq!(a.num_nodes(), 2);
        let b = serve_cluster(&cluster, &board, &options);
        assert_eq!(a, b, "cluster open-loop runs must be bit-identical");
    }

    #[test]
    fn stream_is_shared_across_systems() {
        let (system, board) = small_setup();
        let options = OpenLoopOptions {
            seed: 13,
            ..OpenLoopOptions::new(ArrivalProcess::bursty(50.0, 2_000.0, 100.0, 20.0)).requests(200)
        };
        // The stream depends only on (board, model, options), never on
        // a serving configuration — the fairness property of sweeps.
        let stream = open_loop_stream(system.model(), &board, &options);
        assert_eq!(stream.len(), 200);
        assert!(stream.name().contains("mmpp"));
        assert_eq!(stream, open_loop_stream(system.model(), &board, &options));
    }
}
