//! Multi-node request routing.
//!
//! The cluster front-end sees every request before any node does and
//! decides, deterministically, which node serves it. Routing weighs
//! two signals:
//!
//! * **residency** — how many experts of the request's pre-rolled chain
//!   the candidate node holds under the placement plan (local experts
//!   mean no fabric transfers and no cold loads), and
//! * **queue depth** — a work-left estimate per node, maintained from
//!   the [`PerfMatrix`] predictions the paper's scheduler already uses
//!   (§4.2): never the simulator's ground truth.
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

/// What the dispatcher needs to know about one node to estimate load.
#[derive(Debug, Clone, Copy)]
pub struct NodeLoadModel<'a> {
    /// The node's offline measurements (prediction source, §4.2).
    pub perf: &'a PerfMatrix,
    /// Total executors on the node (work drains this much faster).
    pub executors: usize,
    /// Whether the node has GPU executors (predictions use the GPU
    /// entry when available, the CPU entry otherwise).
    pub has_gpu: bool,
}

/// The routing decision for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// The job goes to `node`, with its arrival already shifted by the
    /// fabric delays its off-node chain stages paid.
    Routed {
        /// The chosen node.
        node: usize,
        /// The job as the node will see it.
        job: Job,
    },
    /// Some chain stage's expert has no live holder: the front-end
    /// cannot serve the request (only possible after node failures
    /// under a static placement).
    Unhosted {
        /// The first unhosted expert in the chain.
        expert: ExpertId,
    },
    /// Every live node has exhausted its per-tick pacing budget: the
    /// front-end sheds the job instead of routing it into an admission
    /// queue that is already observed to be overflowing (only possible
    /// with [`Dispatcher::with_pacing`] enabled).
    Paced,
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
    /// Queue-depth-aware pacing (off by default): when a node reports
    /// admission drops at a control tick, the dispatcher caps how many
    /// jobs it sends that node next tick to just above what the node
    /// actually absorbed, growing the cap back multiplicatively over
    /// clean ticks (AIMD in spirit). Service-scale feedback alone
    /// cannot fix a drifted node whose admission queue overflows —
    /// scaling service time steers *later* jobs away but the burst
    /// already sent is dropped at the node; the budget bounds the
    /// burst itself.
    pacing: bool,
    tick_sent: Vec<u64>,
    tick_budget: Vec<Option<u64>>,
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
            pacing: false,
            tick_sent: vec![0; nodes],
            tick_budget: vec![None; nodes],
        }
    }

    /// Enables (or disables) queue-depth-aware pacing: per-node,
    /// per-tick send budgets derived from the admitted/dropped
    /// telemetry fed through [`Dispatcher::observe_admission`]. With
    /// pacing off (the default) routing is bit-identical to the
    /// un-paced dispatcher.
    #[must_use]
    pub fn with_pacing(mut self, pacing: bool) -> Self {
        self.pacing = pacing;
        self
    }

    /// Opens a new control tick: resets the per-node sent counters the
    /// pacing budgets are charged against.
    pub fn begin_tick(&mut self) {
        self.tick_sent.fill(0);
    }

    /// Feeds one node's admission telemetry back: `admitted`/`dropped`
    /// are the node's tick counters, `drain` the span from the tick's
    /// start to the node's finish (see [`Dispatcher::observe`]), `tick`
    /// the control-tick length. Two
    /// congestion signals set next tick's send budget:
    ///
    /// * **drops** — the admission queue overflowed; clamp to just
    ///   above what the node absorbed;
    /// * **overrun** — the node admitted everything but took well over
    ///   a tick to drain it (the queue grows silently rather than
    ///   overflowing); clamp to the per-tick count it actually
    ///   sustained, `admitted · tick / drain`.
    ///
    /// On a clean tick an existing budget grows by half (and is lifted
    /// entirely once it stops binding). A no-op when pacing is off.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn observe_admission(
        &mut self,
        node: usize,
        admitted: usize,
        dropped: usize,
        drain: SimSpan,
        tick: SimSpan,
    ) {
        if !self.pacing {
            let _ = self.tick_budget[node]; // still bounds-check
            return;
        }
        let admitted = admitted as u64;
        // Sustained per-tick drain rate, only meaningful when the node
        // overran its tick by a margin (a job admitted near the tick
        // edge always finishes a little past it).
        let overrun = admitted > 0
            && tick > SimSpan::ZERO
            && drain.as_millis_f64() > 1.25 * tick.as_millis_f64();
        let sustained = overrun.then(|| {
            let rate = tick.as_millis_f64() / drain.as_millis_f64();
            ((admitted as f64 * rate).floor() as u64).max(1)
        });
        if dropped > 0 {
            let cap = (admitted + admitted / 4 + 1).max(1);
            self.tick_budget[node] = Some(sustained.map_or(cap, |s| s.min(cap)));
        } else if let Some(s) = sustained {
            self.tick_budget[node] = Some(self.tick_budget[node].map_or(s, |b| b.min(s)));
        } else if let Some(b) = self.tick_budget[node] {
            // Multiplicative recovery; once the budget exceeds what the
            // node was actually sent it no longer binds, so lift it.
            let grown = b + (b / 2).max(1);
            self.tick_budget[node] = (grown <= 2 * self.tick_sent[node].max(1)).then_some(grown);
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
    /// estimate by the predicted (feedback-scaled) service time.
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
    /// node is live, or a perf matrix lacks an entry the prediction
    /// needs.
    #[allow(clippy::too_many_arguments)] // the routing context + one fault context
    pub fn route_job(
        &mut self,
        job: &Job,
        model: &CoeModel,
        plan: &PlacementPlan,
        link: LinkProfile,
        nodes: &[NodeLoadModel<'_>],
        alive: &[bool],
        mut faults: Option<RouteFaults<'_>>,
    ) -> Routing {
        let n = self.num_nodes();
        assert_eq!(plan.num_nodes(), n, "plan/node count mismatch");
        assert_eq!(nodes.len(), n, "load model/node count mismatch");
        assert_eq!(alive.len(), n, "alive mask/node count mismatch");
        assert!(alive.iter().any(|&a| a), "routing needs a live node");
        let seq = self.seq;
        self.seq += 1;

        for &expert in &job.stages {
            if !plan.is_hosted(expert, alive) {
                return Routing::Unhosted { expert };
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
        // piling onto node 0. Under pacing, nodes whose per-tick send
        // budget is spent drop out of the scan; when every live node is
        // over budget the job is shed at the front-end rather than fed
        // into an admission queue known to be overflowing.
        let paced_ok = |node: usize| {
            !self.pacing
                || self.tick_budget[node].is_none_or(|budget| self.tick_sent[node] < budget)
        };
        if self.pacing && !(0..n).any(|node| alive[node] && paced_ok(node)) {
            return Routing::Paced;
        }
        let start = seq % n;
        let mut target = select_target(
            self.route,
            (0..n)
                .map(|k| (start + k) % n)
                .filter(|&node| alive[node] && paced_ok(node)),
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
                        (0..n).map(|k| (start + k) % n).filter(|&node| {
                            alive[node] && paced_ok(node) && unreachable_stages(node) == 0
                        }),
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
        self.tick_sent[target] += 1;

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
        Routing::Routed {
            node: target,
            job: Job {
                id: job.id,
                class: job.class,
                arrival,
                stages: job.stages.clone(),
            },
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

    /// Forgets everything learned about `node`: the work it was
    /// predicted to do died with it (re-routed jobs are re-charged to
    /// their new targets), and a node revived later starts with fresh
    /// hardware, an empty queue and no service history. Without this, a
    /// killed node keeps phantom predicted work that biases its first
    /// post-revival observation.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn forget_node(&mut self, node: usize) {
        self.busy_until[node] = SimTime::ZERO;
        self.predicted_since_observe[node] = SimSpan::ZERO;
        self.service_scale[node] = 1.0;
        self.tick_sent[node] = 0;
        self.tick_budget[node] = None;
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

/// Predicted service time of one request chain on a node: the measured
/// `K + B` per stage, divided by the executors draining in parallel.
fn predicted_service(model: &CoeModel, node: &NodeLoadModel<'_>, stages: &[ExpertId]) -> SimSpan {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{plan_placement, PlacementStrategy};
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::{RequestStream, StreamOrder};

    type Fixture = (CoeModel, PerfMatrix, RequestStream, LinkProfile);

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
        (model, perf, stream, LinkProfile::ethernet_10g())
    }

    fn load_models(perf: &PerfMatrix, n: usize) -> Vec<NodeLoadModel<'_>> {
        vec![
            NodeLoadModel {
                perf,
                executors: 4,
                has_gpu: true,
            };
            n
        ]
    }

    /// A dispatcher over `n` nodes.
    fn dispatcher(n: usize, route: RoutePolicy, feedback: FeedbackMode) -> Dispatcher {
        Dispatcher::new(n, route, feedback)
    }

    /// Routes the fixture's whole stream through a fresh open-loop
    /// dispatcher with every node live: the jobs each node receives, in
    /// routing order, plus the dispatcher with its hop and fabric
    /// counters.
    fn route_all(
        (model, perf, stream, link): &Fixture,
        plan: &PlacementPlan,
        route: RoutePolicy,
    ) -> (Vec<Vec<Job>>, Dispatcher) {
        let n = plan.num_nodes();
        let nodes = load_models(perf, n);
        let alive = vec![true; n];
        let mut d = dispatcher(n, route, FeedbackMode::OpenLoop);
        let mut per_node = vec![Vec::new(); n];
        for job in stream.jobs() {
            match d.route_job(job, model, plan, *link, &nodes, &alive, None) {
                Routing::Routed { node, job } => per_node[node].push(job),
                other => panic!("every node is live and pacing is off: {other:?}"),
            }
        }
        (per_node, d)
    }

    #[test]
    fn every_job_is_routed_exactly_once() {
        let fx = setup();
        let (model, perf, stream, _) = &fx;
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
        let (model, perf, stream, _) = &fx;
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
        let (model, perf, stream, _) = &fx;
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
        let (model, perf, stream, _) = &fx;
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
        let (model, perf, stream, _) = &fx;
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Replicated, 7);
        let nodes = load_models(&perf, 4);
        let mut d = dispatcher(4, RoutePolicy::LeastLoaded, FeedbackMode::OpenLoop);
        let alive = [true, false, true, false];
        for job in stream.jobs() {
            match d.route_job(job, &model, &plan, link, &nodes, &alive, None) {
                Routing::Routed { node, .. } => assert!(alive[node], "routed to dead node {node}"),
                Routing::Unhosted { expert } => {
                    panic!("replicated placement cannot orphan {expert}")
                }
                Routing::Paced => panic!("pacing is off"),
            }
        }
        assert_eq!(d.cross_node_hops(), 0);
    }

    #[test]
    fn orphaned_chains_are_unhosted() {
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Sharded, 7);
        let nodes = load_models(&perf, 2);
        let mut d = dispatcher(2, RoutePolicy::ResidencyFirst, FeedbackMode::OpenLoop);
        // Node 1 is dead: every expert sharded onto it is orphaned.
        let alive = [true, false];
        let mut rejected = 0usize;
        for job in stream.jobs() {
            if let Routing::Unhosted { expert } =
                d.route_job(job, &model, &plan, link, &nodes, &alive, None)
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Replicated, 7);
        let nodes = load_models(&perf, 2);
        let alive = [true, true];
        let mut d = dispatcher(2, RoutePolicy::LeastLoaded, FeedbackMode::Corrected);
        assert_eq!(d.estimate_error_ms(), None);
        for job in stream.jobs().iter().take(50) {
            let _ = d.route_job(job, &model, &plan, link, &nodes, &alive, None);
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
    fn pacing_budget_filters_and_sheds() {
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Replicated, 7);
        let nodes = load_models(&perf, 2);
        let alive = [true, true];
        let mut d =
            dispatcher(2, RoutePolicy::LeastLoaded, FeedbackMode::OpenLoop).with_pacing(true);
        // Node 0 overflowed last tick after absorbing 2 jobs; node 1
        // absorbed 4 cleanly (no budget).
        d.observe_admission(
            0,
            2,
            10,
            SimSpan::from_millis(100),
            SimSpan::from_millis(100),
        );
        d.observe_admission(
            1,
            4,
            0,
            SimSpan::from_millis(100),
            SimSpan::from_millis(100),
        );
        d.begin_tick();
        let mut to = [0usize; 2];
        for job in stream.jobs().iter().take(20) {
            if let Routing::Routed { node, .. } =
                d.route_job(job, &model, &plan, link, &nodes, &alive, None)
            {
                to[node] += 1;
            }
        }
        // Budget = 2 + 2/4 + 1 = 3: node 0 takes at most 3 of the 20,
        // the unbudgeted node takes the spill.
        assert!(to[0] <= 3, "budget must cap node 0: {to:?}");
        assert_eq!(to[0] + to[1], 20, "spill is routed, not shed: {to:?}");
        // With node 1 dead, the same budget exhausts the whole fleet
        // and further jobs are shed at the front-end.
        d.begin_tick();
        let dead = [true, false];
        let mut shed = 0usize;
        for job in stream.jobs().iter().take(20) {
            if matches!(
                d.route_job(job, &model, &plan, link, &nodes, &dead, None),
                Routing::Paced
            ) {
                shed += 1;
            }
        }
        assert_eq!(shed, 20 - 3, "everything past the budget is shed");
        // Clean ticks grow the budget back until it stops binding.
        d.observe_admission(
            0,
            3,
            0,
            SimSpan::from_millis(100),
            SimSpan::from_millis(100),
        );
        assert!(d.tick_budget[0].unwrap() > 3);
        // A forgotten (killed/revived) node starts unpaced.
        d.forget_node(0);
        assert_eq!(d.tick_budget[0], None);
    }

    #[test]
    fn pacing_off_routes_identically() {
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 3, PlacementStrategy::UsageAware, 7);
        let nodes = load_models(&perf, 3);
        let alive = [true, true, true];
        let mut plain = dispatcher(3, RoutePolicy::LeastLoaded, FeedbackMode::OpenLoop);
        // Paced but never observing drops: budgets never materialize,
        // so routing is bit-identical to the un-paced dispatcher.
        let mut paced = plain.clone().with_pacing(true);
        for job in stream.jobs() {
            paced.begin_tick();
            let a = plain.route_job(job, &model, &plan, link, &nodes, &alive, None);
            let b = paced.route_job(job, &model, &plan, link, &nodes, &alive, None);
            assert_eq!(a, b);
        }
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 3, PlacementStrategy::Replicated, 7);
        let nodes = load_models(&perf, 3);
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
            d.route_job(job, &model, &plan, link, &nodes, &alive, None);
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
                d.route_job(job, &model, &plan, link, &nodes, &alive, None)
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let nodes = load_models(&perf, 4);
        let alive = vec![true; 4];
        let mut plain = dispatcher(4, RoutePolicy::ResidencyFirst, FeedbackMode::OpenLoop);
        let mut faulted = plain.clone();
        let disabled = coserve_faults::FaultPlan::disabled();
        let mut ledger = FaultLedger::default();
        for job in stream.jobs() {
            let a = plain.route_job(job, &model, &plan, link, &nodes, &alive, None);
            let b = faulted.route_job(
                job,
                &model,
                &plan,
                link,
                &nodes,
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let nodes = load_models(&perf, 4);
        let alive = vec![true; 4];
        let fresh = || dispatcher(4, RoutePolicy::RoundRobin, FeedbackMode::OpenLoop);
        let mut baseline = fresh();
        for job in stream.jobs() {
            baseline.route_job(job, &model, &plan, link, &nodes, &alive, None);
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
                &model,
                &plan,
                link,
                &nodes,
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
        let (model, perf, stream, link) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::Sharded, 7);
        let nodes = load_models(&perf, 4);
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
                    &model,
                    &plan,
                    link,
                    &nodes,
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
}
