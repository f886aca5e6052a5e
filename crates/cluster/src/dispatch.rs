//! Multi-node request routing.
//!
//! The cluster front-end sees every request before any node does and
//! decides, deterministically, which node serves it. Routing weighs
//! two signals:
//!
//! * **residency** — how many experts of the request's pre-rolled chain
//!   the candidate node holds under the placement plan (local experts
//!   mean no fabric transfers and no cold loads), read from the plan's
//!   per-expert holders index, so a routing decision touches only the
//!   experts the request names, and
//! * **queue depth** — a work-left estimate per node, maintained from
//!   the [`PerfMatrix`] predictions the paper's scheduler already uses
//!   (§4.2), never the simulator's ground truth. Every node of a fleet
//!   is the same device under the same configuration, so each expert's
//!   prediction is priced once, into a [`ServiceTable`], when the
//!   cluster is built.
//!
//! The estimate is *open-loop* by default, exactly as the paper's
//! front-end is. A [`Dispatcher`] running under the cluster runtime can
//! instead close the loop ([`FeedbackMode::Corrected`]): at every
//! control tick the nodes report what they actually did (finish time,
//! busy time — the per-node telemetry the engine's `RunReport`
//! carries), and the dispatcher maintains a per-node service-time
//! correction factor (EWMA of observed over predicted busy time) so
//! systematic, node-asymmetric prediction error (unmodelled expert
//! switches on a migration receiver, a slower device than profiled)
//! stops accumulating.
//!
//! When a request's chain includes experts the routed node does not
//! hold, each such stage pays one **cross-node hop**: an 8 MiB
//! activation transfer from the nearest live holder over the fleet's
//! one [`LinkProfile`], charged by delaying the request's arrival at
//! the node. The link is the same between every pair of nodes, so
//! holders differ only in the faults their link suffers. Hop counts and
//! total fabric time flow into the
//! [`coserve_metrics::cluster::ClusterReport`].

use std::fmt;

use coserve_core::config::SystemConfig;
use coserve_core::perf::PerfMatrix;
use coserve_faults::{FaultPlan, LinkOutcome};
use coserve_metrics::faults::FaultLedger;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::device::ProcessorKind;
use coserve_sim::memory::Bytes;
use coserve_sim::network::LinkProfile;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::stream::Job;

use crate::placement::PlacementPlan;

/// Activation payload a cross-node hop ships from the holder of an
/// expert to the routed node.
const ACTIVATION_BYTES: Bytes = Bytes::mib(8);

/// How the cluster front-end picks a node for each request.
///
/// For the first two policies, nodes still tied after both criteria
/// are taken round-robin (rotated by the dispatch sequence number), so
/// a fully tied fleet spreads load instead of piling onto node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Maximize expert residency for the request's chain; break ties by
    /// the smaller work-left estimate.
    ResidencyFirst,
    /// Minimize the work-left estimate; break ties by higher residency.
    LeastLoaded,
    /// Ignore both signals and rotate (the locality-blind baseline).
    RoundRobin,
}

impl RoutePolicy {
    /// The three policies in ablation order.
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::ResidencyFirst,
        RoutePolicy::LeastLoaded,
        RoutePolicy::RoundRobin,
    ];
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutePolicy::ResidencyFirst => write!(f, "residency-first"),
            RoutePolicy::LeastLoaded => write!(f, "least-loaded"),
            RoutePolicy::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// Whether the dispatcher's work-left estimates stay open-loop or are
/// corrected from per-node telemetry at every control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackMode {
    /// Estimates come from offline predictions only (the paper's §4.2
    /// front-end): error accumulates over the run.
    OpenLoop,
    /// Predicted service is scaled per node by an EWMA of the
    /// observed/predicted busy-time ratio reported at each control
    /// tick, steering traffic away from nodes that are systematically
    /// slower than their offline predictions claim.
    Corrected,
}

impl fmt::Display for FeedbackMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackMode::OpenLoop => write!(f, "open-loop"),
            FeedbackMode::Corrected => write!(f, "feedback"),
        }
    }
}

/// What the dispatcher predicts one request costs a fleet node: each
/// expert's single-request span from the node's offline measurements
/// (§4.2), priced once, and the executors the node drains work across.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTable {
    /// Single-request span of each expert, by expert index.
    spans: Vec<SimSpan>,
    /// Total executors on the node (work drains this much faster).
    executors: usize,
}

impl ServiceTable {
    /// Prices every expert of `model` for a node serving under `config`:
    /// on the GPU entry of `perf` when the node has a GPU executor, on
    /// the CPU entry otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `perf` lacks that entry for one of the model's
    /// architectures, which
    /// [`coserve_core::profiler::Profiler::check_kernels`] rules out for
    /// a profiled device.
    #[must_use]
    pub(crate) fn new(model: &CoeModel, perf: &PerfMatrix, config: &SystemConfig) -> Self {
        let proc = if config.gpu_executor_count() > 0 {
            ProcessorKind::Gpu
        } else {
            ProcessorKind::Cpu
        };
        let spans = model
            .experts()
            .iter()
            .map(|expert| perf.expect_entry(expert.arch(), proc).predicted_latency(1))
            .collect();
        ServiceTable {
            spans,
            executors: config.executors.len(),
        }
    }

    /// Predicted service time of one request chain: the spans of its
    /// stages, divided by the executors draining in parallel.
    fn price(&self, stages: &[ExpertId]) -> SimSpan {
        let total: SimSpan = stages.iter().map(|e| self.spans[e.index()]).sum();
        SimSpan::from_millis_f64(total.as_millis_f64() / self.executors.max(1) as f64)
    }
}

/// The routing decision for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// The job goes to `node`, arriving there once the fabric delays its
    /// off-node chain stages paid have passed.
    Routed {
        /// The chosen node.
        node: usize,
        /// The job's arrival at the node.
        arrival: SimTime,
    },
    /// Some chain stage's expert has no live holder: the front-end
    /// cannot serve the request (only possible after node failures
    /// under a static placement).
    Unhosted {
        /// The first unhosted expert in the chain.
        expert: ExpertId,
    },
}

/// The stateful cluster front-end: routes jobs one at a time against a
/// (possibly re-versioned) placement plan and a live-node mask,
/// maintaining work-left estimates across calls and — under
/// [`FeedbackMode::Corrected`] — folding per-node telemetry back into
/// them at every control tick.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    route: RoutePolicy,
    feedback: FeedbackMode,
    seq: usize,
    busy_until: Vec<SimTime>,
    /// Per-node EWMA of observed/predicted busy time (1.0 = predictions
    /// trusted verbatim); only updated under `Corrected`.
    service_scale: Vec<f64>,
    /// Predicted service routed to each node since its last
    /// observation — the denominator of the correction ratio.
    predicted_since_observe: Vec<SimSpan>,
    cross_node_hops: u64,
    fabric_time_total: SimSpan,
    err_samples: u64,
    err_sum_ms: f64,
    residency: Vec<usize>,
}

impl Dispatcher {
    /// A dispatcher over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero.
    #[must_use]
    pub fn new(nodes: usize, route: RoutePolicy, feedback: FeedbackMode) -> Self {
        assert!(nodes > 0, "dispatch needs at least one node");
        Dispatcher {
            route,
            feedback,
            seq: 0,
            busy_until: vec![SimTime::ZERO; nodes],
            service_scale: vec![1.0; nodes],
            predicted_since_observe: vec![SimSpan::ZERO; nodes],
            cross_node_hops: 0,
            fabric_time_total: SimSpan::ZERO,
            err_samples: 0,
            err_sum_ms: 0.0,
            residency: vec![0; nodes],
        }
    }

    /// Number of nodes the dispatcher routes over.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.busy_until.len()
    }

    /// Stages routed off-node so far.
    #[must_use]
    pub fn cross_node_hops(&self) -> u64 {
        self.cross_node_hops
    }

    /// Total fabric time charged so far.
    #[must_use]
    pub fn fabric_time_total(&self) -> SimSpan {
        self.fabric_time_total
    }

    /// Mean absolute error between the predicted and observed node
    /// finish times across all observations, in milliseconds (`None`
    /// before the first observation) — the open-loop-vs-feedback
    /// estimate-quality metric the cluster report carries.
    #[must_use]
    pub fn estimate_error_ms(&self) -> Option<f64> {
        (self.err_samples > 0).then(|| self.err_sum_ms / self.err_samples as f64)
    }

    /// Routes one job against the current plan and live mask: rejects it
    /// as [`Routing::Unhosted`] when some chain stage's expert has no
    /// live holder, picks the target by the routing policy over live
    /// nodes, charges one fabric hop per off-node chain stage (from the
    /// nearest live holder), and advances the target's work-left
    /// estimate by the predicted (feedback-scaled) service time from
    /// `service`. Residency and hops are read from the plan's holders
    /// index, so the call touches only the experts the job names.
    ///
    /// With `faults` set, a deterministic fault plan applies to the
    /// fabric: dilated links stretch the charged hops, and when a
    /// partition cuts the chosen target off from every live holder of a
    /// stage, recovery either hedges the job to the best reachable
    /// candidate ([`RouteFaults::hedge`]) or degrades that stage to the
    /// target's local checkpoint. With `faults` `None` the fault plan is
    /// never consulted and no float math runs.
    ///
    /// # Panics
    ///
    /// Panics when the plan/mask sizes disagree with the dispatcher, no
    /// node is live, or a stage's expert is outside the plan or the
    /// table (both cover the whole model the cluster was built for).
    pub fn route_job(
        &mut self,
        job: &Job,
        plan: &PlacementPlan,
        service: &ServiceTable,
        link: LinkProfile,
        alive: &[bool],
        mut faults: Option<RouteFaults<'_>>,
    ) -> Routing {
        let n = self.num_nodes();
        assert_eq!(plan.num_nodes(), n, "plan/node count mismatch");
        assert_eq!(alive.len(), n, "alive mask/node count mismatch");
        assert!(alive.iter().any(|&a| a), "routing needs a live node");
        let seq = self.seq;
        self.seq += 1;

        // Each stage credits its live holders; the first stage with none
        // rejects the job.
        self.residency.fill(0);
        for &expert in &job.stages {
            let mut hosted = false;
            for &holder in plan.holders(expert) {
                if alive[holder] {
                    self.residency[holder] += 1;
                    hosted = true;
                }
            }
            if !hosted {
                return Routing::Unhosted { expert };
            }
        }
        // Candidates are scanned in an order rotated by the dispatch
        // sequence number, so fully tied nodes (hot-only chains on
        // replicated placement, idle fleets) round-robin instead of
        // piling onto node 0.
        let start = seq % n;
        let mut target = select_target(
            self.route,
            (0..n).map(|k| (start + k) % n).filter(|&node| alive[node]),
            &self.residency,
            &self.busy_until,
            job.arrival,
        )
        .expect("at least one live node");

        // Partition recovery: when the picked target is cut off from
        // every live holder of some chain stage, hedge the job to the
        // best candidate (same policy, same scan order) that can reach
        // all of its stages. A fleet-wide partition leaves no such
        // candidate; the job stays put and degrades per stage below.
        if let Some(f) = faults.as_mut() {
            let fault_plan = f.plan;
            let unreachable_stages = |t: usize| -> usize {
                job.stages
                    .iter()
                    .filter(|&&e| {
                        if plan.is_placed(t, e) {
                            return false;
                        }
                        let mut live = plan.holders(e).iter().filter(|&&h| alive[h]).peekable();
                        live.peek().is_some()
                            && live.all(|&h| fault_plan.partitioned(h, t, job.arrival))
                    })
                    .count()
            };
            if unreachable_stages(target) > 0 {
                f.ledger.note_fault(job.arrival);
                if f.hedge {
                    let alt = select_target(
                        self.route,
                        (0..n)
                            .map(|k| (start + k) % n)
                            .filter(|&node| alive[node] && unreachable_stages(node) == 0),
                        &self.residency,
                        &self.busy_until,
                        job.arrival,
                    );
                    if let Some(alt) = alt {
                        f.ledger.hedged_reroutes += 1;
                        f.ledger.note_recovery(job.arrival);
                        target = alt;
                    }
                }
            }
        }

        // Fabric charge: every chain stage whose expert lives elsewhere
        // ships its activations from the nearest live holder. Every
        // healthy hop costs the same; faults dilate or cut single links.
        let raw = link.transfer_duration(ACTIVATION_BYTES);
        let mut delay = SimSpan::ZERO;
        for &expert in &job.stages {
            let holders = plan.holders(expert);
            if holders.contains(&target) {
                continue;
            }
            let mut nearest: Option<(SimSpan, SimSpan)> = None; // (hop, fault extra)
            let mut live_holders = 0u64;
            let mut cut_links = 0u64;
            for &h in holders {
                if !alive[h] {
                    continue;
                }
                live_holders += 1;
                let (hop, extra) =
                    match faults.as_ref().map(|f| f.plan.link(h, target, job.arrival)) {
                        None | Some(LinkOutcome::Healthy) => (raw, SimSpan::ZERO),
                        Some(LinkOutcome::Dilated(factor)) => {
                            let hop = raw.mul_f64(factor);
                            (hop, hop.saturating_sub(raw))
                        }
                        Some(LinkOutcome::Partitioned) => {
                            cut_links += 1;
                            continue;
                        }
                    };
                if nearest.is_none_or(|(best, _)| hop < best) {
                    nearest = Some((hop, extra));
                }
            }
            match nearest {
                Some((hop, extra)) => {
                    self.cross_node_hops += 1;
                    self.fabric_time_total += hop;
                    delay += hop;
                    if !extra.is_zero() {
                        if let Some(f) = faults.as_mut() {
                            f.ledger.link_dilated += 1;
                            f.ledger.degraded_time += extra;
                            f.ledger.note_fault(job.arrival);
                            f.ledger.note_recovery(job.arrival + delay);
                        }
                    }
                }
                None if live_holders > 0 => {
                    // Every live holder is partitioned away from the
                    // target: graceful degradation — the stage is served
                    // from the target's local SSD checkpoint, so no
                    // fabric hop is charged; the cost is counted on the
                    // ledger and lands in node service time.
                    if let Some(f) = faults.as_mut() {
                        f.ledger.link_partitioned += cut_links;
                        f.ledger.degraded_local += 1;
                        f.ledger.note_fault(job.arrival);
                        f.ledger.note_recovery(job.arrival);
                    }
                }
                None => {}
            }
        }

        let arrival = job.arrival + delay;
        let raw = service.price(&job.stages);
        // The correction ratio compares observation against the *raw*
        // prediction — dividing by the already-scaled value would make
        // the EWMA converge to the square root of the true slowdown.
        self.predicted_since_observe[target] += raw;
        let scaled = if self.feedback == FeedbackMode::Corrected {
            SimSpan::from_millis_f64(raw.as_millis_f64() * self.service_scale[target])
        } else {
            raw
        };
        self.busy_until[target] = self.busy_until[target].max(arrival) + scaled;
        Routing::Routed {
            node: target,
            arrival,
        }
    }

    /// Feeds one node's tick telemetry back: `finish` is when the node
    /// drained its queue, or, while it is still busy, when its engine
    /// predicts it will (against the shared time origin); `busy` the
    /// executor time it spent during the tick. Always scores the estimate error; under
    /// [`FeedbackMode::Corrected`] also updates the node's
    /// service-scale EWMA from the observed/predicted busy-time ratio
    /// (the work-left estimate itself is *not* snapped to the
    /// observation — see the inline note).
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn observe(&mut self, node: usize, finish: SimTime, busy: SimSpan) {
        let predicted = self.predicted_since_observe[node];
        if predicted > SimSpan::ZERO {
            let err = self.busy_until[node]
                .saturating_since(finish)
                .max(finish.saturating_since(self.busy_until[node]));
            self.err_sum_ms += err.as_millis_f64();
            self.err_samples += 1;
            if self.feedback == FeedbackMode::Corrected {
                let predicted_ms = predicted.as_millis_f64();
                if predicted_ms > 0.0 {
                    // Scale-only correction: snapping `busy_until` to the
                    // observation goes stale for nodes idle the next tick
                    // and makes least-loaded routing herd; correcting the
                    // per-node service magnitude diverts traffic from
                    // genuinely slower nodes without that oscillation.
                    let ratio = (busy.as_millis_f64() / predicted_ms).clamp(0.5, 4.0);
                    self.service_scale[node] = 0.5 * self.service_scale[node] + 0.5 * ratio;
                }
            }
        }
        self.predicted_since_observe[node] = SimSpan::ZERO;
    }

    /// Charges out-of-band work (an expert migration landing on `node`)
    /// against the node's work-left estimate, so re-placement traffic
    /// steers subsequent routing away from busy receivers.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn add_busy(&mut self, node: usize, at: SimTime, span: SimSpan) {
        self.busy_until[node] = self.busy_until[node].max(at) + span;
    }
}

/// Fault context for one routing pass: the armed plan plus the ledger
/// charged for what injection and recovery do to this dispatch.
#[derive(Debug)]
pub struct RouteFaults<'a> {
    /// The armed fault plan; link outcomes are sampled at each job's
    /// arrival time, so partitions and dilation windows open and close
    /// as simulated time advances.
    pub plan: &'a FaultPlan,
    /// Accounting for dilated hops, cut links and recovery actions.
    pub ledger: &'a mut FaultLedger,
    /// Whether partition recovery hedges to a reachable candidate
    /// instead of degrading the stage to a local checkpoint read.
    pub hedge: bool,
}

/// Applies `route`'s tie-breaking rule over `scan`'s candidate order.
fn select_target(
    route: RoutePolicy,
    mut scan: impl Iterator<Item = usize>,
    residency: &[usize],
    busy_until: &[SimTime],
    arrival: SimTime,
) -> Option<usize> {
    match route {
        RoutePolicy::RoundRobin => scan.next(),
        RoutePolicy::ResidencyFirst => scan.min_by_key(|&node| {
            (
                std::cmp::Reverse(residency[node]),
                busy_until[node].saturating_since(arrival),
            )
        }),
        RoutePolicy::LeastLoaded => scan.min_by_key(|&node| {
            (
                busy_until[node].saturating_since(arrival),
                std::cmp::Reverse(residency[node]),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{plan_placement, PlacementStrategy};
    use coserve_core::presets;
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::{RequestStream, StreamOrder};

    type Fixture = (
        CoeModel,
        PerfMatrix,
        RequestStream,
        LinkProfile,
        ServiceTable,
    );

    /// A 30-expert board, its profile on a 3 GPU + 1 CPU executor node,
    /// a 300-job stream, the link and the node's service table.
    fn setup() -> Fixture {
        let board = BoardSpec::synthetic("disp", 30, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let stream = RequestStream::generate(
            "disp",
            &board,
            &model,
            300,
            SimSpan::from_millis(4),
            StreamOrder::Iid,
            11,
        );
        let service = ServiceTable::new(&model, &perf, &presets::coserve(&device));
        (model, perf, stream, LinkProfile::ethernet_10g(), service)
    }

    /// A dispatcher over `n` nodes.
    fn dispatcher(n: usize, route: RoutePolicy, feedback: FeedbackMode) -> Dispatcher {
        Dispatcher::new(n, route, feedback)
    }

    /// Routes the fixture's whole stream through a fresh open-loop
    /// dispatcher with every node live: the jobs each node receives, in
    /// routing order and at their routed arrivals, plus the dispatcher
    /// with its hop and fabric counters.
    fn route_all(
        (_, _, stream, link, service): &Fixture,
        plan: &PlacementPlan,
        route: RoutePolicy,
    ) -> (Vec<Vec<Job>>, Dispatcher) {
        let n = plan.num_nodes();
        let alive = vec![true; n];
        let mut d = dispatcher(n, route, FeedbackMode::OpenLoop);
        let mut per_node = vec![Vec::new(); n];
        for job in stream.jobs() {
            match d.route_job(job, plan, service, *link, &alive, None) {
                Routing::Routed { node, arrival } => per_node[node].push(Job {
                    arrival,
                    ..job.clone()
                }),
                other => panic!("every node is live: {other:?}"),
            }
        }
        (per_node, d)
    }

    #[test]
    fn every_job_is_routed_exactly_once() {
        let fx = setup();
        let (model, perf, stream, ..) = &fx;
        let plan = plan_placement(model, perf, 4, PlacementStrategy::UsageAware, 7);
        for route in RoutePolicy::ALL {
            let (per_node, _) = route_all(&fx, &plan, route);
            let total: usize = per_node.iter().map(Vec::len).sum();
            assert_eq!(total, stream.len(), "{route} lost or duplicated jobs");
        }
    }

    #[test]
    fn round_robin_rotates_evenly() {
        let fx = setup();
        let (model, perf, stream, ..) = &fx;
        let plan = plan_placement(model, perf, 4, PlacementStrategy::UsageAware, 7);
        let (per_node, _) = route_all(&fx, &plan, RoutePolicy::RoundRobin);
        for node in &per_node {
            assert_eq!(node.len(), stream.len() / 4);
        }
    }

    #[test]
    fn residency_first_avoids_hops_round_robin_pays_them() {
        let fx = setup();
        let (model, perf, ..) = &fx;
        let plan = plan_placement(model, perf, 4, PlacementStrategy::UsageAware, 7);
        let (_, rf) = route_all(&fx, &plan, RoutePolicy::ResidencyFirst);
        let (_, rr) = route_all(&fx, &plan, RoutePolicy::RoundRobin);
        assert!(
            rf.cross_node_hops() < rr.cross_node_hops(),
            "residency-first {} vs round-robin {}",
            rf.cross_node_hops(),
            rr.cross_node_hops()
        );
        assert!(rr.cross_node_hops() > 0, "sharded tail must cause hops");
        assert!(rr.fabric_time_total() > SimSpan::ZERO);
    }

    #[test]
    fn replicated_placement_never_crosses_nodes() {
        let fx = setup();
        let (model, perf, stream, ..) = &fx;
        let plan = plan_placement(model, perf, 3, PlacementStrategy::Replicated, 7);
        let (per_node, d) = route_all(&fx, &plan, RoutePolicy::LeastLoaded);
        assert_eq!(d.cross_node_hops(), 0);
        assert_eq!(d.fabric_time_total(), SimSpan::ZERO);
        // Arrivals are then untouched.
        for (node, jobs) in per_node.iter().enumerate() {
            for j in jobs {
                assert_eq!(
                    j.arrival,
                    stream.jobs()[j.id.index()].arrival,
                    "node {node}"
                );
            }
        }
    }

    #[test]
    fn fabric_delay_shifts_arrivals_forward() {
        let fx = setup();
        let (model, perf, stream, ..) = &fx;
        let plan = plan_placement(model, perf, 4, PlacementStrategy::Sharded, 7);
        let (per_node, d) = route_all(&fx, &plan, RoutePolicy::RoundRobin);
        assert!(d.cross_node_hops() > 0);
        let mut delayed = 0usize;
        for jobs in &per_node {
            for j in jobs {
                let original = stream.jobs()[j.id.index()].arrival;
                assert!(j.arrival >= original, "fabric can only delay");
                if j.arrival > original {
                    delayed += 1;
                }
            }
        }
        assert!(delayed > 0, "sharded + round-robin must delay some jobs");
    }

    #[test]
    fn least_loaded_balances_work_left() {
        let fx = setup();
        let (model, perf, stream, ..) = &fx;
        let plan = plan_placement(model, perf, 2, PlacementStrategy::Replicated, 7);
        let (per_node, _) = route_all(&fx, &plan, RoutePolicy::LeastLoaded);
        let (a, b) = (per_node[0].len(), per_node[1].len());
        assert!(
            a.abs_diff(b) <= stream.len() / 10,
            "least-loaded badly skewed: {a} vs {b}"
        );
    }

    #[test]
    fn dispatch_is_deterministic() {
        let fx = setup();
        let (model, perf, ..) = &fx;
        let plan = plan_placement(model, perf, 4, PlacementStrategy::Random, 3);
        let (a, da) = route_all(&fx, &plan, RoutePolicy::ResidencyFirst);
        let (b, db) = route_all(&fx, &plan, RoutePolicy::ResidencyFirst);
        assert_eq!(a, b);
        assert_eq!(da.cross_node_hops(), db.cross_node_hops());
        assert_eq!(da.fabric_time_total(), db.fabric_time_total());
    }

    #[test]
    fn dead_nodes_are_never_routed_to() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Replicated, 7);
        let mut d = dispatcher(4, RoutePolicy::LeastLoaded, FeedbackMode::OpenLoop);
        let alive = [true, false, true, false];
        for job in stream.jobs() {
            match d.route_job(job, &plan, &service, link, &alive, None) {
                Routing::Routed { node, .. } => assert!(alive[node], "routed to dead node {node}"),
                Routing::Unhosted { expert } => {
                    panic!("replicated placement cannot orphan {expert}")
                }
            }
        }
        assert_eq!(d.cross_node_hops(), 0);
    }

    #[test]
    fn orphaned_chains_are_unhosted() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Sharded, 7);
        let mut d = dispatcher(2, RoutePolicy::ResidencyFirst, FeedbackMode::OpenLoop);
        // Node 1 is dead: every expert sharded onto it is orphaned.
        let alive = [true, false];
        let mut rejected = 0usize;
        for job in stream.jobs() {
            if let Routing::Unhosted { expert } =
                d.route_job(job, &plan, &service, link, &alive, None)
            {
                assert!(plan.is_placed(1, expert) && !plan.is_placed(0, expert));
                rejected += 1;
            }
        }
        assert!(
            rejected > 0,
            "half the shard is gone; some chains must fail"
        );
    }

    #[test]
    fn feedback_scales_predictions_and_scores_error() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Replicated, 7);
        let alive = [true, true];
        let mut d = dispatcher(2, RoutePolicy::LeastLoaded, FeedbackMode::Corrected);
        assert_eq!(d.estimate_error_ms(), None);
        for job in stream.jobs().iter().take(50) {
            let _ = d.route_job(job, &plan, &service, link, &alive, None);
        }
        // Pretend both nodes took 3× the predicted busy time and
        // finished late: the error ledger fills and, corrected, the
        // scale rises above 1.
        let observed_finish = SimTime::ZERO + SimSpan::from_secs(30);
        d.observe(0, observed_finish, SimSpan::from_secs(20));
        d.observe(1, observed_finish, SimSpan::from_secs(20));
        let err = d.estimate_error_ms().expect("two observations");
        assert!(err > 0.0);
        assert!(d.service_scale[0] > 1.0 && d.service_scale[1] > 1.0);
        // A second observation round with no new work is a no-op.
        d.observe(0, SimTime::ZERO, SimSpan::ZERO);
        assert_eq!(d.estimate_error_ms(), Some(err));
    }

    #[test]
    fn route_policy_displays() {
        assert_eq!(RoutePolicy::ResidencyFirst.to_string(), "residency-first");
        assert_eq!(RoutePolicy::LeastLoaded.to_string(), "least-loaded");
        assert_eq!(RoutePolicy::RoundRobin.to_string(), "round-robin");
        assert_eq!(FeedbackMode::OpenLoop.to_string(), "open-loop");
        assert_eq!(FeedbackMode::Corrected.to_string(), "feedback");
    }

    #[test]
    fn corrected_feedback_steers_off_a_slow_node() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 3, PlacementStrategy::Replicated, 7);
        let alive = vec![true; 3];
        let mut d = dispatcher(3, RoutePolicy::LeastLoaded, FeedbackMode::Corrected);
        // One burst: every job arrives at once, so the work-left
        // estimates actually accumulate instead of draining between
        // arrivals (spread-out arrivals leave every node idle and tied).
        let jobs: Vec<Job> = stream
            .jobs()
            .iter()
            .map(|j| Job {
                id: j.id,
                class: j.class,
                arrival: SimTime::ZERO,
                stages: j.stages.clone(),
            })
            .collect();
        let (warmup, measured) = jobs.split_at(60);
        for job in warmup {
            d.route_job(job, &plan, &service, link, &alive, None);
        }
        // Telemetry for the warmup tick: node 0 spent far more busy
        // time than predicted (a slow node), the others far less. The
        // correction EWMA must steer the next tick's jobs away from 0.
        let finish = SimTime::ZERO + SimSpan::from_millis(500);
        d.observe(0, finish, SimSpan::from_secs(100));
        d.observe(1, finish, SimSpan::ZERO);
        d.observe(2, finish, SimSpan::ZERO);
        let mut counts = [0usize; 3];
        for job in measured {
            if let Routing::Routed { node, .. } =
                d.route_job(job, &plan, &service, link, &alive, None)
            {
                counts[node] += 1;
            }
        }
        assert!(
            counts[0] < counts[1] && counts[0] < counts[2],
            "slow node must receive the least work: {counts:?}"
        );
    }

    #[test]
    fn disabled_fault_plan_routes_bit_identically() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let alive = vec![true; 4];
        let mut plain = dispatcher(4, RoutePolicy::ResidencyFirst, FeedbackMode::OpenLoop);
        let mut faulted = plain.clone();
        let disabled = coserve_faults::FaultPlan::disabled();
        let mut ledger = FaultLedger::default();
        for job in stream.jobs() {
            let a = plain.route_job(job, &plan, &service, link, &alive, None);
            let b = faulted.route_job(
                job,
                &plan,
                &service,
                link,
                &alive,
                Some(RouteFaults {
                    plan: &disabled,
                    ledger: &mut ledger,
                    hedge: true,
                }),
            );
            assert_eq!(a, b, "a disabled plan must not change any decision");
        }
        assert_eq!(plain.fabric_time_total(), faulted.fabric_time_total());
        assert!(ledger.is_empty(), "nothing may be charged without faults");
    }

    #[test]
    fn dilated_links_stretch_charged_hops() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let alive = vec![true; 4];
        let fresh = || dispatcher(4, RoutePolicy::RoundRobin, FeedbackMode::OpenLoop);
        let mut baseline = fresh();
        for job in stream.jobs() {
            baseline.route_job(job, &plan, &service, link, &alive, None);
        }
        let fault_plan = coserve_faults::FaultPlan::seeded(5).with_link(
            0.9,
            4.0,
            Vec::new(),
            coserve_faults::FaultWindow::ALWAYS,
        );
        let mut ledger = FaultLedger::default();
        let mut slow = fresh();
        for job in stream.jobs() {
            slow.route_job(
                job,
                &plan,
                &service,
                link,
                &alive,
                Some(RouteFaults {
                    plan: &fault_plan,
                    ledger: &mut ledger,
                    hedge: false,
                }),
            );
        }
        assert!(ledger.link_dilated > 0, "rate 0.9 must dilate some hops");
        assert!(ledger.degraded_time > SimSpan::ZERO);
        assert!(
            slow.fabric_time_total() > baseline.fabric_time_total(),
            "4x dilation must stretch total fabric time"
        );
    }

    #[test]
    fn partitions_hedge_when_enabled_and_degrade_when_not() {
        let (model, perf, stream, link, service) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let alive = vec![true; 4];
        // Node 0 is cut off from everyone: any job it would take with
        // off-node stages needs recovery.
        let cuts = vec![(0, 1), (0, 2), (0, 3)];
        let run = |hedge: bool| {
            let fault_plan = coserve_faults::FaultPlan::seeded(5).with_link(
                0.0,
                1.0,
                cuts.clone(),
                coserve_faults::FaultWindow::ALWAYS,
            );
            let mut ledger = FaultLedger::default();
            let mut d = dispatcher(4, RoutePolicy::RoundRobin, FeedbackMode::OpenLoop);
            let mut to_zero = 0usize;
            for job in stream.jobs() {
                if let Routing::Routed { node, .. } = d.route_job(
                    job,
                    &plan,
                    &service,
                    link,
                    &alive,
                    Some(RouteFaults {
                        plan: &fault_plan,
                        ledger: &mut ledger,
                        hedge,
                    }),
                ) {
                    if node == 0 {
                        to_zero += 1;
                    }
                }
            }
            (ledger, to_zero)
        };
        let (hedged, _) = run(true);
        assert!(hedged.hedged_reroutes > 0, "hedging must fire on cuts");
        assert!(hedged.recovery_span().is_some());
        let (degraded, to_zero) = run(false);
        assert_eq!(degraded.hedged_reroutes, 0);
        assert!(
            degraded.degraded_local > 0,
            "without hedging, cut stages fall back to local checkpoints"
        );
        assert!(degraded.link_partitioned > 0);
        assert!(to_zero > 0, "degraded jobs stay on the cut node");
    }

    /// What the reference routing needs to know about one node to
    /// estimate load.
    #[derive(Debug, Clone, Copy)]
    struct NodeLoadModel<'a> {
        /// The node's offline measurements (prediction source, §4.2).
        perf: &'a PerfMatrix,
        /// Total executors on the node (work drains this much faster).
        executors: usize,
        /// Whether the node has GPU executors (predictions use the GPU
        /// entry when available, the CPU entry otherwise).
        has_gpu: bool,
    }

    /// The reference routing's context: what it priced every request
    /// from, on every call.
    struct Pricing<'a> {
        model: &'a CoeModel,
        nodes: Vec<NodeLoadModel<'a>>,
    }

    /// The reference routing's decision, carrying a clone of the job as
    /// the node will see it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum ReferenceRouting {
        Routed { node: usize, job: Job },
        Unhosted { expert: ExpertId },
    }

    impl Dispatcher {
        /// The oracle for [`Dispatcher::route_job`]: the same routing
        /// with residency probed in every node's placement set, service
        /// priced per stage from the perf matrix, and a clone of the
        /// routed job returned. Its body is `route_job`'s before the
        /// holders index and the service table replaced those lookups.
        fn reference_route(
            &mut self,
            job: &Job,
            pricing: &Pricing<'_>,
            plan: &PlacementPlan,
            link: LinkProfile,
            alive: &[bool],
            mut faults: Option<RouteFaults<'_>>,
        ) -> ReferenceRouting {
            let (model, nodes) = (pricing.model, pricing.nodes.as_slice());
            let n = self.num_nodes();
            assert_eq!(plan.num_nodes(), n, "plan/node count mismatch");
            assert_eq!(nodes.len(), n, "load model/node count mismatch");
            assert_eq!(alive.len(), n, "alive mask/node count mismatch");
            assert!(alive.iter().any(|&a| a), "routing needs a live node");
            let seq = self.seq;
            self.seq += 1;

            for &expert in &job.stages {
                if !plan.is_hosted(expert, alive) {
                    return ReferenceRouting::Unhosted { expert };
                }
            }

            for (node, &live) in alive.iter().enumerate() {
                self.residency[node] = if live {
                    job.stages
                        .iter()
                        .filter(|&&e| plan.is_placed(node, e))
                        .count()
                } else {
                    0
                };
            }
            // Candidates are scanned in an order rotated by the dispatch
            // sequence number, so fully tied nodes (hot-only chains on
            // replicated placement, idle fleets) round-robin instead of
            // piling onto node 0.
            let start = seq % n;
            let mut target = select_target(
                self.route,
                (0..n).map(|k| (start + k) % n).filter(|&node| alive[node]),
                &self.residency,
                &self.busy_until,
                job.arrival,
            )
            .expect("at least one live node");

            // Partition recovery: when the picked target is cut off from
            // every live holder of some chain stage, hedge the job to the
            // best candidate (same policy, same scan order) that can reach
            // all of its stages. A fleet-wide partition leaves no such
            // candidate; the job stays put and degrades per stage below.
            if let Some(f) = faults.as_mut() {
                let fault_plan = f.plan;
                let unreachable_stages = |t: usize| -> usize {
                    job.stages
                        .iter()
                        .filter(|&&e| {
                            if plan.is_placed(t, e) {
                                return false;
                            }
                            let mut live = plan.holders(e).iter().filter(|&&h| alive[h]).peekable();
                            live.peek().is_some()
                                && live.all(|&h| fault_plan.partitioned(h, t, job.arrival))
                        })
                        .count()
                };
                if unreachable_stages(target) > 0 {
                    f.ledger.note_fault(job.arrival);
                    if f.hedge {
                        let alt = select_target(
                            self.route,
                            (0..n)
                                .map(|k| (start + k) % n)
                                .filter(|&node| alive[node] && unreachable_stages(node) == 0),
                            &self.residency,
                            &self.busy_until,
                            job.arrival,
                        );
                        if let Some(alt) = alt {
                            f.ledger.hedged_reroutes += 1;
                            f.ledger.note_recovery(job.arrival);
                            target = alt;
                        }
                    }
                }
            }

            // Fabric charge: every chain stage whose expert lives elsewhere
            // ships its activations from the nearest live holder. Every
            // healthy hop costs the same; faults dilate or cut single links.
            let raw = link.transfer_duration(ACTIVATION_BYTES);
            let mut delay = SimSpan::ZERO;
            for &expert in &job.stages {
                if plan.is_placed(target, expert) {
                    continue;
                }
                let mut nearest: Option<(SimSpan, SimSpan)> = None; // (hop, fault extra)
                let mut live_holders = 0u64;
                let mut cut_links = 0u64;
                for &h in plan.holders(expert) {
                    if !alive[h] {
                        continue;
                    }
                    live_holders += 1;
                    let (hop, extra) =
                        match faults.as_ref().map(|f| f.plan.link(h, target, job.arrival)) {
                            None | Some(LinkOutcome::Healthy) => (raw, SimSpan::ZERO),
                            Some(LinkOutcome::Dilated(factor)) => {
                                let hop = raw.mul_f64(factor);
                                (hop, hop.saturating_sub(raw))
                            }
                            Some(LinkOutcome::Partitioned) => {
                                cut_links += 1;
                                continue;
                            }
                        };
                    if nearest.is_none_or(|(best, _)| hop < best) {
                        nearest = Some((hop, extra));
                    }
                }
                match nearest {
                    Some((hop, extra)) => {
                        self.cross_node_hops += 1;
                        self.fabric_time_total += hop;
                        delay += hop;
                        if !extra.is_zero() {
                            if let Some(f) = faults.as_mut() {
                                f.ledger.link_dilated += 1;
                                f.ledger.degraded_time += extra;
                                f.ledger.note_fault(job.arrival);
                                f.ledger.note_recovery(job.arrival + delay);
                            }
                        }
                    }
                    None if live_holders > 0 => {
                        // Every live holder is partitioned away from the
                        // target: graceful degradation — the stage is served
                        // from the target's local SSD checkpoint, so no
                        // fabric hop is charged; the cost is counted on the
                        // ledger and lands in node service time.
                        if let Some(f) = faults.as_mut() {
                            f.ledger.link_partitioned += cut_links;
                            f.ledger.degraded_local += 1;
                            f.ledger.note_fault(job.arrival);
                            f.ledger.note_recovery(job.arrival);
                        }
                    }
                    None => {}
                }
            }

            let arrival = job.arrival + delay;
            let raw = predicted_service(model, &nodes[target], &job.stages);
            // The correction ratio compares observation against the *raw*
            // prediction — dividing by the already-scaled value would make
            // the EWMA converge to the square root of the true slowdown.
            self.predicted_since_observe[target] += raw;
            let service = if self.feedback == FeedbackMode::Corrected {
                SimSpan::from_millis_f64(raw.as_millis_f64() * self.service_scale[target])
            } else {
                raw
            };
            self.busy_until[target] = self.busy_until[target].max(arrival) + service;
            ReferenceRouting::Routed {
                node: target,
                job: Job {
                    id: job.id,
                    class: job.class,
                    arrival,
                    stages: job.stages.clone(),
                },
            }
        }
    }

    /// The reference routing's service prediction: the measured `K + B`
    /// per stage, divided by the executors draining in parallel.
    fn predicted_service(
        model: &CoeModel,
        node: &NodeLoadModel<'_>,
        stages: &[ExpertId],
    ) -> SimSpan {
        let proc = if node.has_gpu {
            ProcessorKind::Gpu
        } else {
            ProcessorKind::Cpu
        };
        let total: SimSpan = stages
            .iter()
            .map(|&e| {
                let arch = model.expert(e).arch();
                node.perf.expect_entry(arch, proc).predicted_latency(1)
            })
            .sum();
        SimSpan::from_millis_f64(total.as_millis_f64() / node.executors.max(1) as f64)
    }

    mod proptests {
        use super::*;
        use coserve_faults::FaultWindow;
        use coserve_sim::rng::SimRng;
        use proptest::prelude::*;

        /// A random alive mask over `n` nodes with at least one live
        /// node.
        fn random_mask(rng: &mut SimRng, n: usize) -> Vec<bool> {
            let mut alive: Vec<bool> = (0..n).map(|_| rng.next_below(3) > 0).collect();
            if !alive.contains(&true) {
                alive[rng.next_below(n as u64) as usize] = true;
            }
            alive
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// The holders-index routing decides every job exactly as the
            /// reference does: the same node and arrival, or the same
            /// unhosted expert. Chunks of jobs run between random live
            /// masks and telemetry; afterwards the work-left estimates,
            /// hop and fabric counters, estimate error and fault ledgers
            /// agree too.
            #[test]
            fn route_job_matches_the_reference(
                seed in 0u64..1_000_000,
                strategy in 0usize..4,
                nodes in 1usize..=6,
                route in 0usize..3,
                corrected in any::<bool>(),
                faults in 0u8..3,
                gpus in 0usize..=3,
                cpus in 1usize..=2,
            ) {
                let (model, perf, stream, link, _) = setup();
                let device = devices::numa_rtx3080ti();
                let config = presets::coserve_with(&device, "prop", gpus, cpus, None);
                let service = ServiceTable::new(&model, &perf, &config);
                let pricing = Pricing {
                    model: &model,
                    nodes: vec![
                        NodeLoadModel {
                            perf: &perf,
                            executors: config.executors.len(),
                            has_gpu: config.gpu_executor_count() > 0,
                        };
                        nodes
                    ],
                };
                let strategy = PlacementStrategy::ALL[strategy];
                let plan = plan_placement(&model, &perf, nodes, strategy, seed);
                let feedback = if corrected {
                    FeedbackMode::Corrected
                } else {
                    FeedbackMode::OpenLoop
                };
                let mut rng = SimRng::seed_from(seed);
                // Faults off, or link dilation plus a few cut pairs
                // inside a window over part of the stream, hedged or not.
                let horizon =
                    stream.last_arrival().saturating_since(SimTime::ZERO).nanos();
                let fault_plan = (faults > 0).then(|| {
                    let cuts = if nodes > 1 {
                        (0..1 + rng.next_below(3))
                            .map(|_| {
                                let a = rng.next_below(nodes as u64) as usize;
                                let b = (a + 1 + rng.next_below(nodes as u64 - 1) as usize)
                                    % nodes;
                                (a, b)
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let start = SimTime::ZERO + SimSpan::from_nanos(rng.next_below(horizon));
                    let window =
                        FaultWindow::new(start, SimSpan::from_nanos(1 + horizon / 2));
                    FaultPlan::seeded(seed).with_link(
                        rng.next_f64(),
                        1.0 + 4.0 * rng.next_f64(),
                        cuts,
                        window,
                    )
                });
                let hedge = faults == 1;

                let mut new = Dispatcher::new(nodes, RoutePolicy::ALL[route], feedback);
                let mut old = new.clone();
                let mut new_ledger = FaultLedger::default();
                let mut old_ledger = FaultLedger::default();
                let mut alive = vec![true; nodes];
                let mut jobs = stream.jobs();
                while !jobs.is_empty() {
                    // Between chunks: a new live mask, and random
                    // telemetry fed to both dispatchers alike.
                    if rng.next_below(4) == 0 {
                        alive = random_mask(&mut rng, nodes);
                    }
                    for node in 0..nodes {
                        if rng.next_below(3) == 0 {
                            let finish = SimTime::ZERO
                                + SimSpan::from_nanos(rng.next_below(2 * horizon + 1));
                            let busy = SimSpan::from_nanos(rng.next_below(horizon + 1));
                            new.observe(node, finish, busy);
                            old.observe(node, finish, busy);
                        }
                    }
                    let take = (1 + rng.next_below(40) as usize).min(jobs.len());
                    let (chunk, rest) = jobs.split_at(take);
                    jobs = rest;
                    for job in chunk {
                        let got = new.route_job(
                            job,
                            &plan,
                            &service,
                            link,
                            &alive,
                            fault_plan.as_ref().map(|plan| RouteFaults {
                                plan,
                                ledger: &mut new_ledger,
                                hedge,
                            }),
                        );
                        let want = match old.reference_route(
                            job,
                            &pricing,
                            &plan,
                            link,
                            &alive,
                            fault_plan.as_ref().map(|plan| RouteFaults {
                                plan,
                                ledger: &mut old_ledger,
                                hedge,
                            }),
                        ) {
                            ReferenceRouting::Routed { node, job: routed } => {
                                prop_assert_eq!(&routed.stages, &job.stages);
                                prop_assert_eq!(
                                    (routed.id, routed.class),
                                    (job.id, job.class)
                                );
                                Routing::Routed { node, arrival: routed.arrival }
                            }
                            ReferenceRouting::Unhosted { expert } => {
                                Routing::Unhosted { expert }
                            }
                        };
                        prop_assert_eq!(got, want, "job {:?}", job.id);
                    }
                }
                prop_assert_eq!(&new.busy_until, &old.busy_until);
                prop_assert_eq!(new.cross_node_hops(), old.cross_node_hops());
                prop_assert_eq!(new.fabric_time_total(), old.fabric_time_total());
                prop_assert_eq!(new.estimate_error_ms(), old.estimate_error_ms());
                prop_assert_eq!(new_ledger, old_ledger);
            }
        }
    }
}
