//! # coserve-cluster
//!
//! Cluster-scale serving for the CoServe reproduction: one CoE model
//! served by a fleet of `n` identical nodes joined by one network link.
//!
//! The single-device system (`coserve-core`) already solves *which
//! experts stay resident* and *which executor runs a batch*. Scaling
//! out adds three cluster-level decisions, each in its own module:
//!
//! * [`placement`] — which node each expert lives on, planned offline
//!   from the usage CDF and the dependency graph (hot experts
//!   replicated, cold tail sharded with dependency co-location);
//! * [`mod@dispatch`] — which node each request is routed to, weighing
//!   expert residency against per-node queue depth;
//! * the fleet's [`coserve_sim::network::LinkProfile`] — what a
//!   cross-node hop costs, charged whenever a request's expert chain is
//!   not fully local. Every pair of nodes shares this one link.
//!
//! [`ClusterSystem`] ties them together: each node serves the jobs the
//! dispatcher routes to it through one unmodified engine session
//! (admission queues included) that stays open for the whole run, and
//! the per-node [`coserve_metrics::report::RunReport`]s merge into one
//! [`coserve_metrics::cluster::ClusterReport`]. Everything stays
//! deterministic bit for bit.
//!
//! The [`runtime`] module drives the fleet as an event-driven
//! **control loop**: tick-driven dispatch with per-node telemetry
//! feedback and mid-run node failures (re-routing + shard
//! re-replication over the link) — see
//! [`ClusterSystem::serve_runtime`]. The one-shot serve is its
//! single-tick case.
//!
//! ```
//! use coserve_cluster::prelude::*;
//! use coserve_core::presets;
//! use coserve_model::devices;
//! use coserve_sim::network::LinkProfile;
//! use coserve_workload::task::TaskSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let task = TaskSpec::a1().scaled(0.02); // 50 requests for a demo
//! let model = task.build_model()?;
//! let device = devices::numa_rtx3080ti();
//! let cluster = ClusterSystem::homogeneous(
//!     2,
//!     &device,
//!     &presets::coserve(&device),
//!     &model,
//!     LinkProfile::ethernet_10g(),
//!     ClusterOptions::default(),
//! )?;
//! let report = cluster.serve(&task.stream(cluster.model()));
//! assert_eq!(report.completed, 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use coserve_core::config::{AdmissionControl, SystemConfig};
use coserve_core::engine::EngineError;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_core::system::ServingSystem;
use coserve_metrics::cluster::ClusterReport;
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_sim::network::LinkProfile;
use coserve_workload::stream::RequestStream;

pub mod dispatch;
pub mod placement;
pub mod runtime;

use dispatch::RoutePolicy;
use placement::{plan_placement, PlacementPlan, PlacementStrategy};
use runtime::RuntimeOptions;

/// Seed [`PlacementStrategy::Random`] places experts with.
const PLACEMENT_SEED: u64 = 7;

/// Cluster-level policy knobs: how experts are placed and how requests
/// are routed. Every cross-node hop ships 8 MiB of activations, and
/// [`PlacementStrategy::Random`] always places with seed 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOptions {
    /// How experts are placed across nodes.
    pub placement: PlacementStrategy,
    /// How requests are routed to nodes.
    pub route: RoutePolicy,
}

impl Default for ClusterOptions {
    /// Usage-aware placement and residency-first routing.
    fn default() -> Self {
        ClusterOptions {
            placement: PlacementStrategy::UsageAware,
            route: RoutePolicy::ResidencyFirst,
        }
    }
}

impl ClusterOptions {
    /// Replaces the placement strategy.
    #[must_use]
    pub fn placement(mut self, strategy: PlacementStrategy) -> Self {
        self.placement = strategy;
        self
    }

    /// Replaces the routing policy.
    #[must_use]
    pub fn route(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }
}

/// Error detected when constructing a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No nodes were supplied.
    Empty,
    /// A node's configuration failed engine validation.
    Node {
        /// Index of the failing node.
        node: usize,
        /// The underlying engine error.
        source: EngineError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Empty => write!(f, "cluster needs at least one node"),
            ClusterError::Node { node, source } => {
                write!(f, "node {node} is not servable: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A ready-to-serve cluster: `n` identical nodes sharing one offline
/// profile, the placement plan, and the link every pair of nodes
/// shares.
#[derive(Debug, Clone)]
pub struct ClusterSystem {
    nodes: Vec<ServingSystem>,
    link: LinkProfile,
    plan: PlacementPlan,
    options: ClusterOptions,
}

impl ClusterSystem {
    /// A fleet of `n` identical nodes — `device` serving under `config`
    /// — with every pair joined by `link`. The device is profiled
    /// offline once and every node shares the matrix; the placement
    /// plan overrides each node's preload order so nodes specialize in
    /// their shard.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Empty`] when `n` is zero, and
    /// [`ClusterError::Node`] when `device` lacks a kernel the profiler
    /// needs (reported for node 0) or a node's configuration fails
    /// engine validation on `device`.
    pub fn homogeneous(
        n: usize,
        device: &DeviceProfile,
        config: &SystemConfig,
        model: &CoeModel,
        link: LinkProfile,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        if n == 0 {
            return Err(ClusterError::Empty);
        }
        let profiler = Profiler::with_defaults();
        profiler
            .check_kernels(device, model)
            .map_err(|source| ClusterError::Node { node: 0, source })?;
        let perf = profiler.profile(device, model, UsageSource::Declared);
        let plan = plan_placement(model, &perf, n, options.placement, PLACEMENT_SEED);
        let nodes = (0..n)
            .map(|i| {
                let mut config = config.clone();
                config.preload_order = Some(plan.preload_order(i).to_vec());
                ServingSystem::with_matrix(device.clone(), model.clone(), perf.clone(), config)
                    .map_err(|source| ClusterError::Node { node: i, source })
            })
            .collect::<Result<_, _>>()?;
        Ok(ClusterSystem {
            nodes,
            link,
            plan,
            options,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The per-node serving systems, in node order.
    #[must_use]
    pub fn nodes(&self) -> &[ServingSystem] {
        &self.nodes
    }

    /// The shared CoE model.
    #[must_use]
    pub fn model(&self) -> &CoeModel {
        self.nodes[0].model()
    }

    /// The link every pair of nodes shares.
    #[must_use]
    pub fn link(&self) -> LinkProfile {
        self.link
    }

    /// The placement plan.
    #[must_use]
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// The cluster options.
    #[must_use]
    pub fn options(&self) -> &ClusterOptions {
        &self.options
    }

    /// Serves `stream` across the fleet: routes every request, charges
    /// cross-node hops, runs one engine per node, merges the reports.
    #[must_use]
    pub fn serve(&self, stream: &RequestStream) -> ClusterReport {
        self.serve_inner(stream, None)
    }

    /// Like [`ClusterSystem::serve`], overriding every node's online
    /// knobs (admission bound and grouping starvation bound) — the
    /// open-loop entry point.
    #[must_use]
    pub fn serve_with_online(
        &self,
        stream: &RequestStream,
        admission: AdmissionControl,
        max_overtake: u32,
    ) -> ClusterReport {
        self.serve_inner(stream, Some((admission, max_overtake)))
    }

    fn serve_inner(
        &self,
        stream: &RequestStream,
        online: Option<(AdmissionControl, u32)>,
    ) -> ClusterReport {
        let options = RuntimeOptions {
            online,
            ..RuntimeOptions::default()
        };
        self.serve_runtime(stream, &options)
    }
}

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::dispatch::{
        Dispatcher, FeedbackMode, NodeLoadModel, RouteFaults, RoutePolicy, Routing,
    };
    pub use crate::placement::{
        migration_plan, plan_placement, ExpertMove, MigrationPlan, PlacementPlan, PlacementStrategy,
    };
    pub use crate::runtime::{
        FailureEvent, FailureKind, FailureSchedule, ReplacementPolicy, RuntimeOptions,
    };
    pub use crate::{ClusterError, ClusterOptions, ClusterSystem};
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_core::presets;
    use coserve_model::devices;
    use coserve_workload::task::TaskSpec;

    fn small_cluster(n: usize, options: ClusterOptions) -> (ClusterSystem, RequestStream) {
        let task = TaskSpec::a1().scaled(0.04); // 100 requests
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let cluster = ClusterSystem::homogeneous(
            n,
            &device,
            &presets::coserve(&device),
            &model,
            LinkProfile::ethernet_10g(),
            options,
        )
        .unwrap();
        let stream = task.stream(cluster.model());
        (cluster, stream)
    }

    #[test]
    fn cluster_serves_and_conserves_jobs() {
        let (cluster, stream) = small_cluster(3, ClusterOptions::default());
        assert_eq!(cluster.num_nodes(), 3);
        assert_eq!(cluster.link(), LinkProfile::ethernet_10g());
        let report = cluster.serve(&stream);
        assert_eq!(report.submitted, 100);
        assert_eq!(
            report.completed + report.failed + report.dropped,
            report.submitted
        );
        assert_eq!(
            report.completed, 100,
            "closed-loop run completes everything"
        );
        assert!(report.throughput_ips() > 0.0);
        assert!(report.system.contains("×3"));
        assert!(report.system.contains("usage-aware"));
    }

    #[test]
    fn node_preload_orders_follow_the_plan() {
        let (cluster, _) = small_cluster(2, ClusterOptions::default());
        for (i, node) in cluster.nodes().iter().enumerate() {
            let order = node.config().preload_order.as_ref().unwrap();
            assert_eq!(order.as_slice(), cluster.plan().preload_order(i));
        }
    }

    #[test]
    fn construction_errors_are_reported() {
        let task = TaskSpec::a1().scaled(0.01);
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let link = LinkProfile::ethernet_10g();
        let build = |n: usize, config: &SystemConfig| {
            ClusterSystem::homogeneous(n, &device, config, &model, link, ClusterOptions::default())
        };
        let config = presets::coserve(&device);
        assert_eq!(build(0, &config).unwrap_err(), ClusterError::Empty);
        // A node configuration without executors is refused up front.
        let mut idle = config.clone();
        idle.executors.clear();
        let source = EngineError::NoExecutors;
        assert_eq!(
            build(1, &idle).unwrap_err(),
            ClusterError::Node { node: 0, source }
        );
        // The per-node validation error names the failing node.
        let node_err = ClusterError::Node {
            node: 2,
            source: EngineError::PerfModelMismatch {
                model_experts: 4,
                perf_experts: 2,
            },
        };
        assert!(node_err.to_string().contains("node 2 is not servable"));
    }

    #[test]
    fn kernel_less_device_is_a_construction_error() {
        let model = TaskSpec::a1().scaled(0.01).build_model().unwrap();
        let bare = DeviceProfile::numa_rtx3080ti(); // no kernels installed
        let err = ClusterSystem::homogeneous(
            2,
            &bare,
            &presets::coserve(&devices::numa_rtx3080ti()),
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::Node {
                    node: 0,
                    source: EngineError::MissingKernel(_, _),
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn online_override_bounds_every_node() {
        let (cluster, stream) = small_cluster(2, ClusterOptions::default());
        let report =
            cluster.serve_with_online(&stream, AdmissionControl::with_queue_capacity(4096), 16);
        assert_eq!(report.dropped, 0, "huge bound must not drop at this load");
        assert_eq!(report.admitted, report.submitted);
    }

    #[test]
    fn cluster_runs_are_bit_identical() {
        let options = ClusterOptions::default().placement(PlacementStrategy::Random);
        let (a_sys, a_stream) = small_cluster(3, options);
        let (b_sys, b_stream) = small_cluster(3, options);
        assert_eq!(a_sys.serve(&a_stream), b_sys.serve(&b_stream));
    }
}
