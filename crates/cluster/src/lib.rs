//! # coserve-cluster
//!
//! Cluster-scale serving for the CoServe reproduction: one CoE model
//! served by a fleet of heterogeneous nodes.
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
//! * the network [`coserve_sim::network::Fabric`] — what a cross-node
//!   hop costs, charged whenever a request's expert chain is not fully
//!   local.
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
//! re-replication over the fabric) — see
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
use coserve_core::perf::PerfMatrix;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_core::system::ServingSystem;
use coserve_metrics::cluster::ClusterReport;
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_sim::network::{Fabric, LinkProfile};
use coserve_workload::stream::RequestStream;

pub mod dispatch;
pub mod placement;
pub mod runtime;

use dispatch::RoutePolicy;
use placement::{plan_placement, PlacementPlan, PlacementStrategy};
use runtime::RuntimeOptions;

/// One node of a cluster: a name, the hardware, and the per-node
/// serving configuration (the fleet may be heterogeneous in both).
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display name ("rack0/gpu1").
    pub name: String,
    /// The node's hardware.
    pub device: DeviceProfile,
    /// The node's serving configuration. Its `preload_order` is
    /// overwritten by the placement plan at cluster construction.
    pub config: SystemConfig,
}

impl NodeSpec {
    /// A new node spec.
    #[must_use]
    pub fn new(name: impl Into<String>, device: DeviceProfile, config: SystemConfig) -> Self {
        NodeSpec {
            name: name.into(),
            device,
            config,
        }
    }
}

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
    /// The fabric covers a different number of nodes than the fleet.
    FabricMismatch {
        /// Nodes in the fabric.
        fabric: usize,
        /// Nodes in the fleet.
        nodes: usize,
    },
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
            ClusterError::FabricMismatch { fabric, nodes } => {
                write!(f, "fabric covers {fabric} nodes but the fleet has {nodes}")
            }
            ClusterError::Node { node, source } => {
                write!(f, "node {node} is not servable: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A ready-to-serve cluster: per-node serving systems (each profiled on
/// its own hardware), the placement plan, and the network fabric.
#[derive(Debug, Clone)]
pub struct ClusterSystem {
    names: Vec<String>,
    nodes: Vec<ServingSystem>,
    fabric: Fabric,
    plan: PlacementPlan,
    options: ClusterOptions,
}

impl ClusterSystem {
    /// Builds a cluster from node specs. Each node is profiled offline
    /// on its own device; the placement plan (computed from the first
    /// node's matrix — usage probabilities are device-independent)
    /// overrides each node's preload order so nodes specialize in their
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when the fleet is empty, the fabric
    /// size disagrees, or any node's configuration fails engine
    /// validation on its device.
    ///
    /// # Panics
    ///
    /// Panics when a node's device lacks kernels for the model's
    /// architectures — the offline profiler has nothing to measure
    /// (same contract as [`Profiler::profile`]).
    pub fn new(
        specs: Vec<NodeSpec>,
        model: &CoeModel,
        fabric: Fabric,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        if specs.is_empty() {
            return Err(ClusterError::Empty);
        }
        if fabric.len() != specs.len() {
            return Err(ClusterError::FabricMismatch {
                fabric: fabric.len(),
                nodes: specs.len(),
            });
        }
        let profiler = Profiler::with_defaults();
        // Profile each *distinct* device once — a homogeneous fleet
        // shares one offline pass instead of re-measuring identical
        // hardware per node (profiling is deterministic, so the shared
        // matrix is exactly what per-node passes would produce).
        let mut profiled: Vec<(usize, PerfMatrix)> = Vec::new();
        let matrices: Vec<PerfMatrix> = specs
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                if let Some((_, m)) = profiled
                    .iter()
                    .find(|entry| specs[entry.0].device == s.device)
                {
                    return m.clone();
                }
                let m = profiler.profile(&s.device, model, UsageSource::Declared);
                profiled.push((idx, m.clone()));
                m
            })
            .collect();
        let plan = plan_placement(
            model,
            &matrices[0],
            specs.len(),
            options.placement,
            PLACEMENT_SEED,
        );
        let mut names = Vec::with_capacity(specs.len());
        let mut nodes = Vec::with_capacity(specs.len());
        for (i, (spec, perf)) in specs.into_iter().zip(matrices).enumerate() {
            let mut config = spec.config;
            config.preload_order = Some(plan.preload_order(i).to_vec());
            let system = ServingSystem::with_matrix(spec.device, model.clone(), perf, config)
                .map_err(|source| ClusterError::Node { node: i, source })?;
            names.push(spec_name_or_default(&system, spec.name, i));
            nodes.push(system);
        }
        Ok(ClusterSystem {
            names,
            nodes,
            fabric,
            plan,
            options,
        })
    }

    /// A homogeneous fleet: `n` identical nodes on a fully connected
    /// fabric of `link`s.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] exactly as [`ClusterSystem::new`] does.
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
        let specs = (0..n)
            .map(|i| NodeSpec::new(format!("node-{i}"), device.clone(), config.clone()))
            .collect();
        ClusterSystem::new(specs, model, Fabric::fully_connected(n, link), options)
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

    /// The node names, in node order.
    #[must_use]
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// The shared CoE model.
    #[must_use]
    pub fn model(&self) -> &CoeModel {
        self.nodes[0].model()
    }

    /// The network fabric.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
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
    /// fabric hops, runs one engine per node, merges the reports.
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

fn spec_name_or_default(system: &ServingSystem, name: String, index: usize) -> String {
    if name.is_empty() {
        format!("{}#{index}", system.device().name())
    } else {
        name
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
    pub use crate::{ClusterError, ClusterOptions, ClusterSystem, NodeSpec};
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
        assert_eq!(cluster.node_names().len(), 3);
        assert_eq!(cluster.fabric().len(), 3);
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
    fn heterogeneous_fleet_builds() {
        let task = TaskSpec::a1().scaled(0.02);
        let model = task.build_model().unwrap();
        let numa = devices::numa_rtx3080ti();
        let uma = devices::uma_apple_m2();
        let specs = vec![
            NodeSpec::new("numa-0", numa.clone(), presets::coserve(&numa)),
            NodeSpec::new("uma-0", uma.clone(), presets::coserve(&uma)),
        ];
        let cluster = ClusterSystem::new(
            specs,
            &model,
            Fabric::fully_connected(2, LinkProfile::ethernet_100g()),
            ClusterOptions::default(),
        )
        .unwrap();
        let report = cluster.serve(&task.stream(cluster.model()));
        assert_eq!(report.completed, 50);
        assert_eq!(report.nodes[0].device, numa.name());
        assert_eq!(report.nodes[1].device, uma.name());
    }

    #[test]
    fn construction_errors_are_reported() {
        let task = TaskSpec::a1().scaled(0.01);
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        assert_eq!(
            ClusterSystem::new(
                Vec::new(),
                &model,
                Fabric::fully_connected(1, LinkProfile::ethernet_10g()),
                ClusterOptions::default(),
            )
            .unwrap_err(),
            ClusterError::Empty
        );
        let specs = vec![NodeSpec::new("a", device, config)];
        let err = ClusterSystem::new(
            specs,
            &model,
            Fabric::fully_connected(3, LinkProfile::ethernet_10g()),
            ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::FabricMismatch { .. }));
        assert!(err.to_string().contains("fabric covers 3"));
        // A node configuration without executors is refused up front.
        let mut idle = presets::coserve(&devices::numa_rtx3080ti());
        idle.executors.clear();
        let specs = vec![NodeSpec::new("idle", devices::numa_rtx3080ti(), idle)];
        let fabric = Fabric::fully_connected(1, LinkProfile::ethernet_10g());
        let err = ClusterSystem::new(specs, &model, fabric, ClusterOptions::default());
        let source = EngineError::NoExecutors;
        assert_eq!(err.unwrap_err(), ClusterError::Node { node: 0, source });
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
