//! The event-driven cluster runtime.
//!
//! The run is divided into control *ticks*, and the runtime interleaves
//! dispatch with periodic control actions:
//!
//! * **telemetry feedback** — at every tick boundary each node reports
//!   what its engine did during the tick (expected finish, busy time);
//!   under [`FeedbackMode::Corrected`](crate::dispatch::FeedbackMode)
//!   the [`Dispatcher`] folds those observations back into its
//!   work-left estimates instead of letting open-loop prediction error
//!   accumulate;
//! * **failure injection** — a [`FailureSchedule`] kills nodes mid-run,
//!   and a killed node stays dead. On a kill, the dying node's
//!   unfinished requests are pulled back and re-routed to survivors,
//!   and (unless the re-placement policy is
//!   [`ReplacementPolicy::Static`]) the planner derives a successor
//!   [`PlacementPlan`] that re-replicates the dead node's orphaned
//!   shard. An orphan has no live replica to copy from, so each copy in
//!   the [`migration_plan`] delta is reloaded from the receiving node's
//!   own checkpoint store.
//!
//! Each node serves through one [`EngineSession`] for the whole run:
//! routing submits a job straight into its node's session, and a tick
//! boundary only pumps every busy session up to the boundary, so queues
//! and resident experts carry over between ticks and the tick length
//! alone changes nothing but the telemetry timeline. A kill serves the
//! dying node up to the failure instant, closes its session and
//! re-routes the jobs still open there with arrivals floored at that
//! instant.
//!
//! Everything stays deterministic bit for bit: the failure schedule,
//! migrations and feedback are all pure functions of the inputs.

use std::collections::BTreeMap;
use std::fmt;

use coserve_core::config::{AdmissionControl, SystemConfig};
use coserve_core::engine::{Completion, CompletionStatus, EngineSession, SessionCounters};
use coserve_core::system::ServingSystem;
use coserve_faults::FaultPlan;
use coserve_metrics::cluster::{ClusterReport, FailureRecord, FleetDynamics, TickStat};
use coserve_metrics::faults::FaultLedger;
use coserve_metrics::report::RunReport;
use coserve_metrics::stats::percentile_of_spans;
use coserve_model::expert::ExpertId;
use coserve_sim::events::Calendar;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_sim::transfer::TransferRoute;
use coserve_trace::{NoopTracer, TraceEvent, TraceKind, Tracer};
use coserve_workload::stream::{Job, RequestStream};

use crate::dispatch::{Dispatcher, FeedbackMode, RouteFaults, Routing};
use crate::placement::{migration_plan, MigrationPlan, PlacementPlan};
use crate::ClusterSystem;

/// One scheduled kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// When the node dies.
    pub at: SimTime,
    /// The node it kills.
    pub node: usize,
}

/// A deterministic mid-run failure script: kills applied at fixed
/// simulation times, in time order (ties: node).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// An empty schedule (no failures).
    #[must_use]
    pub fn new() -> Self {
        FailureSchedule::default()
    }

    /// Schedules `node` to die at `at`; a kill of a node already dead
    /// does nothing.
    #[must_use]
    pub fn kill(mut self, node: usize, at: SimTime) -> Self {
        self.events.push(FailureEvent { at, node });
        self.events.sort_by_key(|e| (e.at, e.node));
        self
    }

    /// The events in firing order.
    #[must_use]
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// The largest node index any event names.
    #[must_use]
    pub fn max_node(&self) -> Option<usize> {
        self.events.iter().map(|e| e.node).max()
    }
}

/// How the runtime re-plans placement when a node dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Never touch the offline plan: a dead node's shard stays orphaned
    /// and requests needing it are rejected (the paper's static
    /// baseline under failures).
    Static,
    /// Re-replicate a dead node's orphans onto survivors, each copy
    /// reloaded from the receiving node's checkpoint store.
    OnFailure,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementPolicy::Static => write!(f, "static"),
            ReplacementPolicy::OnFailure => write!(f, "re-replicate"),
        }
    }
}

/// The latency SLO the per-tick attainment accounting scores against.
pub const SLO: SimSpan = SimSpan::from_millis(250);

/// Options for one [`ClusterSystem::serve_runtime`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Control-tick length; `None` runs a single tick spanning the
    /// whole stream (the one-shot behaviour of
    /// [`ClusterSystem::serve`], with no feedback opportunities).
    pub tick: Option<SimSpan>,
    /// Mid-run kills.
    pub failures: FailureSchedule,
    /// How placement reacts to failures.
    pub replacement: ReplacementPolicy,
    /// Whether dispatch estimates stay open-loop or are corrected from
    /// node telemetry at every tick.
    pub feedback: FeedbackMode,
    /// Per-node online overrides (admission bound, grouping starvation
    /// bound), as in [`ClusterSystem::serve_with_online`].
    pub online: Option<(AdmissionControl, u32)>,
    /// Deterministic fault schedule for the fabric (link dilation and
    /// partitions, sampled per routed job) and the fleet (slow-node
    /// service dilation, sampled per tick and applied to the compute
    /// each node's engine starts). A disabled plan (the default) is
    /// never consulted, keeping the run bit-identical to a fault-free
    /// one.
    pub faults: FaultPlan,
    /// Partition recovery at the front-end: when the chosen route
    /// target is cut off from every live holder of a chain stage, hedge
    /// the job to the best reachable candidate instead of degrading the
    /// stage to a local checkpoint read. On by default; only consulted
    /// while a fault plan is armed.
    pub hedge: bool,
}

impl Default for RuntimeOptions {
    /// One-shot: a single tick, no failures, failure-reactive
    /// re-placement armed (it never fires without failures), open-loop
    /// estimates and no online overrides.
    fn default() -> Self {
        RuntimeOptions {
            tick: None,
            failures: FailureSchedule::new(),
            replacement: ReplacementPolicy::OnFailure,
            feedback: FeedbackMode::OpenLoop,
            online: None,
            faults: FaultPlan::disabled(),
            hedge: true,
        }
    }
}

impl RuntimeOptions {
    /// Replaces the control-tick length.
    #[must_use]
    pub fn tick(mut self, tick: SimSpan) -> Self {
        self.tick = Some(tick);
        self
    }

    /// Replaces the failure schedule.
    #[must_use]
    pub fn failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// Replaces the re-placement policy.
    #[must_use]
    pub fn replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Replaces the feedback mode.
    #[must_use]
    pub fn feedback(mut self, feedback: FeedbackMode) -> Self {
        self.feedback = feedback;
        self
    }

    /// Replaces the online overrides.
    #[must_use]
    pub fn online(mut self, admission: AdmissionControl, max_overtake: u32) -> Self {
        self.online = Some((admission, max_overtake));
        self
    }

    /// Arms a fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables (or disables) hedged re-routing around partitions.
    #[must_use]
    pub fn hedge(mut self, hedge: bool) -> Self {
        self.hedge = hedge;
        self
    }
}

impl ClusterSystem {
    /// Serves `stream` through the dynamic cluster runtime: tick-driven
    /// dispatch with telemetry feedback and failure injection with
    /// re-routing and re-replication, all per `options`.
    /// [`ClusterSystem::serve`] and [`ClusterSystem::serve_with_online`]
    /// are this with [`RuntimeOptions::default`] (single tick, no
    /// failures).
    ///
    /// # Panics
    ///
    /// Panics when the failure schedule names a node outside the fleet
    /// or a tick of zero length is supplied.
    #[must_use]
    pub fn serve_runtime(&self, stream: &RequestStream, options: &RuntimeOptions) -> ClusterReport {
        let mut noop = NoopTracer;
        self.serve_runtime_traced(stream, options, &mut noop)
    }

    /// [`ClusterSystem::serve_runtime`] with a structured-event
    /// collector: fleet control actions — kills, migration start/land,
    /// re-plans, front-end sheds — are recorded into
    /// `tracer`, stamped with their node and simulation time. With a
    /// disabled tracer this is exactly `serve_runtime` (every emission
    /// site is guarded by `enabled()`).
    ///
    /// # Panics
    ///
    /// Panics when the failure schedule names a node outside the fleet
    /// or a tick of zero length is supplied.
    #[must_use]
    pub fn serve_runtime_traced(
        &self,
        stream: &RequestStream,
        options: &RuntimeOptions,
        tracer: &mut dyn Tracer,
    ) -> ClusterReport {
        if let Some(max) = options.failures.max_node() {
            assert!(
                max < self.num_nodes(),
                "failure schedule names node {max} of a {}-node fleet",
                self.num_nodes()
            );
        }
        if let Some(tick) = options.tick {
            assert!(tick > SimSpan::ZERO, "control tick must be positive");
        }
        // Each node serves under its own configuration plus the run's
        // online overrides; its sessions borrow it.
        let configs: Vec<SystemConfig> = self
            .nodes()
            .iter()
            .map(|s| {
                let mut config = s.config().clone();
                if let Some((admission, max_overtake)) = options.online {
                    config.admission = Some(admission);
                    config.max_overtake = Some(max_overtake);
                }
                config
            })
            .collect();
        Runtime::new(self, options, &configs, stream, tracer).run()
    }
}

/// Control-calendar lane for scheduled failure events. Failures are
/// pushed before arrivals, so at an exact shared instant the failure
/// fires first (the calendar's FIFO tie-break).
const LANE_FAILURES: usize = 0;
/// Control-calendar lane for job arrivals (non-decreasing by the
/// [`RequestStream`] invariant, so every push is a lane append).
const LANE_ARRIVALS: usize = 1;
/// Number of control-calendar lanes.
const CTRL_LANES: usize = 2;

/// One entry in the runtime's control calendar: the tick loop is driven
/// off the same event-calendar primitive as the per-node engines, so
/// control ticks are calendar pops rather than a second clock.
#[derive(Debug, Clone, Copy)]
enum CtrlEv<'a> {
    /// A stream job reaches the front-end.
    Arrive(&'a Job),
    /// A scheduled kill fires.
    Failure(FailureEvent),
}

/// What the runtime keeps about one node across ticks.
struct NodeState<'a> {
    /// The node's serving system.
    system: &'a ServingSystem,
    /// The node's configuration plus the run's online overrides.
    config: &'a SystemConfig,
    /// The label of the node's session and report.
    label: String,
    /// The node's engine session — its queue and resident experts —
    /// opened at the node's first job.
    session: Option<EngineSession<'a>>,
    /// The stream job behind every job submitted to `session`, by
    /// session job id, so a kill can re-route the ones still open.
    routed: Vec<&'a Job>,
    /// The session's counters at the last tick boundary.
    last: SessionCounters,
    /// The session's report once a kill or the single-tick flush closed
    /// it. A killed node is never routed to again, and the single-tick
    /// flush follows the last arrival, so a node has at most one
    /// session.
    report: Option<RunReport>,
}

impl<'a> NodeState<'a> {
    /// Submits stream job `job` at its routed `arrival`, opening the
    /// node's session at its first job; `false` when the engine rejects
    /// the stage chain as longer than it supports (the configuration
    /// itself was validated at cluster construction).
    fn submit(&mut self, job: &'a Job, arrival: SimTime) -> bool {
        if self.session.is_none() {
            let label = self.label.clone();
            self.session = self.system.session_configured(label, self.config).ok();
        }
        let accepted = self
            .session
            .as_mut()
            .is_some_and(|session| session.submit(arrival, &job.stages).is_ok());
        if accepted {
            self.routed.push(job);
        }
        accepted
    }

    /// The node's report; a zero report when it never served (possible
    /// under residency-first routing of a tiny stream, or for a node
    /// dead from the start).
    fn into_report(self) -> RunReport {
        let (system, label) = (self.system, self.label);
        self.report
            .or_else(|| self.session.map(EngineSession::into_report))
            .unwrap_or_else(|| {
                RunReport::empty(system.config().name.clone(), system.device().name(), label)
            })
    }
}

/// What ended during the current control tick.
#[derive(Default)]
struct TickTally {
    /// Stream arrivals the front-end handled (routed or rejected).
    routed: usize,
    completed: usize,
    /// Front-end rejections plus node admission drops.
    dropped: usize,
    slo_met: usize,
    latencies: Vec<SimSpan>,
}

impl TickTally {
    /// Counts a node's terminal job records against [`SLO`].
    fn record(&mut self, ended: Vec<Completion>) {
        for job in ended {
            match job.status {
                CompletionStatus::Completed => {
                    self.completed += 1;
                    self.slo_met += usize::from(job.latency <= SLO);
                    self.latencies.push(job.latency);
                }
                CompletionStatus::Dropped => self.dropped += 1,
                CompletionStatus::Failed => {}
            }
        }
    }
}

/// The mutable state of one runtime run.
struct Runtime<'a> {
    sys: &'a ClusterSystem,
    options: &'a RuntimeOptions,
    stream: &'a RequestStream,
    dispatcher: Dispatcher,
    plan: PlacementPlan,
    alive: Vec<bool>,
    nodes: Vec<NodeState<'a>>,
    dynamics: FleetDynamics,
    /// When each recently migrated expert's new copies become usable;
    /// requests touching one are delayed to its completion.
    available_at: BTreeMap<ExpertId, SimTime>,
    /// Start of the current control tick.
    tick_start: SimTime,
    tally: TickTally,
    /// Fleet-event sink; every emission guarded by `enabled()` so a
    /// [`NoopTracer`] keeps the run bit-identical to the untraced path.
    tracer: &'a mut (dyn Tracer + 'a),
    /// The armed fault plan; `None` when the options carry a disabled
    /// plan, so the fault-free path never consults it.
    faults: Option<&'a FaultPlan>,
    /// Injection/recovery accounting; lands in the report's
    /// [`FleetDynamics::faults`].
    ledger: FaultLedger,
}

impl<'a> Runtime<'a> {
    fn new(
        sys: &'a ClusterSystem,
        options: &'a RuntimeOptions,
        configs: &'a [SystemConfig],
        stream: &'a RequestStream,
        tracer: &'a mut (dyn Tracer + 'a),
    ) -> Self {
        let n = sys.num_nodes();
        let dispatcher = Dispatcher::new(n, sys.options().route, options.feedback);
        let nodes = sys
            .nodes()
            .iter()
            .zip(configs)
            .enumerate()
            .map(|(i, (system, config))| NodeState {
                system,
                config,
                label: format!("{} @ node-{i}", stream.name()),
                session: None,
                routed: Vec::new(),
                last: SessionCounters::default(),
                report: None,
            })
            .collect();
        Runtime {
            sys,
            options,
            stream,
            dispatcher,
            plan: sys.plan().clone(),
            alive: vec![true; n],
            nodes,
            dynamics: FleetDynamics::default(),
            available_at: BTreeMap::new(),
            tick_start: SimTime::ZERO,
            tally: TickTally::default(),
            tracer,
            faults: (!options.faults.is_disabled()).then_some(&options.faults),
            ledger: FaultLedger::default(),
        }
    }

    /// Records one fleet event; call sites guard with
    /// `tracer.enabled()` so the disabled path constructs nothing.
    fn emit(&mut self, at: SimTime, node: u32, kind: TraceKind) {
        self.tracer.record(TraceEvent { at, node, kind });
    }

    fn run(mut self) -> ClusterReport {
        let jobs = self.stream.jobs();
        // Failures first: at a shared instant their smaller sequence
        // numbers pop ahead of the arrival.
        let mut calendar: Calendar<CtrlEv<'a>> = Calendar::new(CTRL_LANES);
        for &event in self.options.failures.events() {
            calendar.push_lane(LANE_FAILURES, event.at, CtrlEv::Failure(event));
        }
        for job in jobs {
            calendar.push_lane(LANE_ARRIVALS, job.arrival, CtrlEv::Arrive(job));
        }
        let mut arrivals_left = jobs.len();
        let mut tick_index = 0u32;

        loop {
            let tick_end = self.options.tick.map(|t| self.tick_start + t);

            loop {
                let popped = match tick_end {
                    Some(end) => calendar.pop_before(end),
                    None => calendar.pop(),
                };
                let Some(scheduled) = popped else { break };
                match scheduled.payload {
                    CtrlEv::Arrive(job) => {
                        arrivals_left -= 1;
                        self.tally.routed += 1;
                        self.route(job, None);
                    }
                    CtrlEv::Failure(event) => self.kill(event.node, event.at),
                }
            }

            // A single tick serves everything routed to completion.
            let end = tick_end.unwrap_or_else(|| self.stream.last_arrival());
            self.flush_tick(tick_index, end, tick_end.unwrap_or(SimTime::MAX));
            tick_index += 1;

            // Ticks go on past the last arrival until every node has
            // served its backlog, so a failure during the drain still
            // finds the work in flight.
            let idle = |n: &NodeState| n.session.as_ref().is_none_or(EngineSession::is_idle);
            let done = arrivals_left == 0 && self.nodes.iter().all(idle);
            match tick_end {
                Some(end) if !done => self.tick_start = end,
                _ => {
                    // Remaining events only mutate the plan/alive state
                    // and the failure ledger.
                    while let Some(scheduled) = calendar.pop() {
                        match scheduled.payload {
                            CtrlEv::Failure(event) => self.kill(event.node, event.at),
                            CtrlEv::Arrive(_) => unreachable!("no arrivals left to pop"),
                        }
                    }
                    break;
                }
            }
        }

        self.assemble()
    }

    /// Routes stream job `stream_job` (its arrival optionally floored to
    /// a re-route instant) into its node's session, or records a
    /// front-end rejection.
    fn route(&mut self, stream_job: &'a Job, floor: Option<SimTime>) {
        let floored = floor.filter(|&at| at > stream_job.arrival).map(|at| Job {
            arrival: at,
            ..stream_job.clone()
        });
        let job = floored.as_ref().unwrap_or(stream_job);
        if !self.alive.iter().any(|&a| a) {
            self.shed(job);
            return;
        }
        let hedge = self.options.hedge;
        let route_faults = self.faults.map(|plan| RouteFaults {
            plan,
            ledger: &mut self.ledger,
            hedge,
        });
        match self.dispatcher.route_job(
            job,
            &self.plan,
            self.sys.service(),
            self.sys.link(),
            &self.alive,
            route_faults,
        ) {
            Routing::Routed {
                node,
                arrival,
                hedged_from,
            } => {
                if let Some(from) = hedged_from.filter(|_| self.tracer.enabled()) {
                    self.emit(
                        job.arrival,
                        node as u32,
                        TraceKind::HedgedReroute {
                            job: job.id.0,
                            from: from as u32,
                            to: node as u32,
                        },
                    );
                }
                // A chain touching an in-flight migrated expert waits
                // for its copy to land.
                let arrival = stream_job
                    .stages
                    .iter()
                    .filter_map(|e| self.available_at.get(e))
                    .fold(arrival, |at, &ready| at.max(ready));
                let accepted = self
                    .nodes
                    .get_mut(node)
                    .is_some_and(|state| state.submit(stream_job, arrival));
                if !accepted {
                    // A chain no engine can run (too many stages) is
                    // rejected like an unhosted one.
                    self.shed(job);
                }
            }
            Routing::Unhosted { .. } => self.shed(job),
        }
    }

    /// Counts a front-end rejection and traces it.
    fn shed(&mut self, job: &Job) {
        self.dynamics.routing_dropped += 1;
        self.tally.dropped += 1;
        if self.tracer.enabled() {
            self.emit(job.arrival, 0, TraceKind::Shed { job: job.id.0 });
        }
    }

    fn kill(&mut self, node: usize, at: SimTime) {
        let Some(alive) = self.alive.get_mut(node).filter(|alive| **alive) else {
            return;
        };
        *alive = false;
        // The dying node serves up to the failure instant; the jobs it
        // has not finished by then are pulled back and re-routed, with
        // arrivals floored at the failure instant (the re-route cannot
        // happen before the failure is observed). The dispatcher keeps
        // its estimates for the node: a dead node is never routed to,
        // observed or charged again.
        let slowdown = self
            .faults
            .map_or(1.0, |p| p.node_dilation(node, self.tick_start));
        let mut evacuated = Vec::new();
        if let Some(state) = self.nodes.get_mut(node) {
            if let Some(mut session) = state.session.take() {
                session.set_service_factor(slowdown);
                session.pump_until(at);
                self.tally.record(session.drain_completions());
                let (report, open) = session.evacuate();
                evacuated = open
                    .iter()
                    .filter_map(|&id| state.routed.get(id as usize).copied())
                    .collect();
                state.report = Some(report);
            }
        }
        if self.tracer.enabled() {
            self.emit(
                at,
                node as u32,
                TraceKind::NodeKilled {
                    rerouted: evacuated.len() as u32,
                },
            );
        }
        // Re-replicate the orphaned shard before re-routing, so pulled
        // requests whose experts lived only here stay servable.
        let recovered_at = if self.replaces() && self.alive.iter().any(|&a| a) {
            let next = self.plan.rehosted(self.sys.model(), &self.alive);
            let migration = migration_plan(&self.plan, &next, &self.alive);
            let done = self.migrate(&migration, next.version(), at);
            self.plan = next;
            Some(done)
        } else {
            None
        };
        self.dynamics.failures.push(FailureRecord {
            node,
            failed_at: at,
            recovered_at,
        });
        self.dynamics.rerouted += evacuated.len() as u64;
        for job in evacuated {
            self.route(job, Some(at));
        }
    }

    fn replaces(&self) -> bool {
        self.options.replacement != ReplacementPolicy::Static
    }

    /// Charges a migration's expert copies and returns when the last
    /// one lands. A kill re-replicates only orphans, which have no live
    /// replica to copy from, so each copy is reloaded from its
    /// receiver's checkpoint store.
    fn migrate(&mut self, migration: &MigrationPlan, new_version: u64, at: SimTime) -> SimTime {
        if self.tracer.enabled() {
            self.emit(
                at,
                0,
                TraceKind::Replanned {
                    version: new_version,
                    moves: migration.moves.len() as u32,
                },
            );
        }
        let mut done_latest = at;
        for mv in &migration.moves {
            let Some(receiver) = self.sys.nodes().get(mv.to) else {
                continue;
            };
            let bytes = self.sys.model().weight_bytes(mv.expert);
            let duration = receiver
                .device()
                .transfer_duration(bytes, TransferRoute::SsdToCpu);
            let done = at + duration;
            done_latest = done_latest.max(done);
            self.dynamics.migrations += 1;
            self.dynamics.migration_bytes += bytes;
            self.dynamics.migration_time_total += duration;
            // Replacement traffic competes with serving: the receiver
            // is busier, and chains touching the expert wait for it.
            self.dispatcher.add_busy(mv.to, at, duration);
            let ready = self.available_at.entry(mv.expert).or_insert(done);
            *ready = (*ready).max(done);
            if self.tracer.enabled() {
                self.emit(
                    at,
                    mv.to as u32,
                    TraceKind::MigrationStarted {
                        expert: mv.expert,
                        span: duration,
                    },
                );
                self.emit(
                    done,
                    mv.to as u32,
                    TraceKind::MigrationLanded { expert: mv.expert },
                );
            }
        }
        self.dynamics.plan_versions = new_version;
        done_latest
    }

    /// Pumps every busy node's session to `limit`, feeds each node's
    /// tick telemetry back to the dispatcher and appends the tick to
    /// the timeline. A node's finish is its last batch when it drained,
    /// else `limit` plus its predicted backlog.
    fn flush_tick(&mut self, index: u32, end: SimTime, limit: SimTime) {
        let start = self.tick_start;
        for (node, state) in self.nodes.iter_mut().enumerate() {
            let Some(session) = state.session.as_mut().filter(|s| !s.is_idle()) else {
                continue;
            };
            let slowdown = self.faults.map_or(1.0, |p| p.node_dilation(node, start));
            session.set_service_factor(slowdown);
            session.pump_until(limit);
            self.tally.record(session.drain_completions());
            let now = session.counters();
            let finish = if session.is_idle() {
                now.last_done
            } else {
                limit + session.predicted_backlog(limit)
            };
            let busy = now.busy - state.last.busy;
            state.last = now;
            if self.options.tick.is_none() {
                // The single-tick flush served everything: close the
                // session now instead of holding every node's engine
                // state until the end of the run.
                state.report = state.session.take().map(EngineSession::into_report);
            }
            if slowdown > 1.0 {
                // The engine already stretched the tick's compute; the
                // ledger charges the stretched share of its busy time.
                let extra = busy.mul_f64(1.0 - 1.0 / slowdown);
                self.ledger.slow_node_ticks += 1;
                self.ledger.degraded_time += extra;
                self.ledger.note_fault(start);
                self.ledger.note_recovery(finish);
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        at: start,
                        node: node as u32,
                        kind: TraceKind::SlowNode { extra },
                    });
                }
            }
            self.dispatcher.observe(node, finish, busy);
        }
        let mut tally = std::mem::take(&mut self.tally);
        if tally.routed > 0 || tally.completed > 0 || tally.dropped > 0 {
            self.dynamics.ticks.push(TickStat {
                index,
                start,
                end,
                routed: tally.routed,
                completed: tally.completed,
                dropped: tally.dropped,
                slo_met: tally.slo_met,
                p95_ms: percentile_of_spans(&mut tally.latencies, 95.0),
            });
        }
        // Migration clocks older than this tick can no longer delay
        // anything (arrivals only move forward).
        self.available_at.retain(|_, &mut ready| ready > end);
    }

    fn assemble(mut self) -> ClusterReport {
        let sys = self.sys;
        let reports: Vec<RunReport> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(NodeState::into_report)
            .collect();
        let feedback = match self.options.feedback {
            FeedbackMode::OpenLoop => String::new(),
            FeedbackMode::Corrected => ", feedback".to_string(),
        };
        let system_name = format!(
            "{} ×{} ({}, {}{})",
            reports.first().map_or("", |r| r.system.as_str()),
            sys.num_nodes(),
            self.plan.strategy(),
            sys.options().route,
            feedback,
        );
        let mut report = ClusterReport::merge(
            system_name,
            self.stream.name(),
            reports,
            self.dispatcher.cross_node_hops(),
            self.dispatcher.fabric_time_total(),
        );
        // Front-end rejections never reached a node: account for them
        // at the fleet level so conservation still holds.
        report.submitted += self.dynamics.routing_dropped;
        report.dropped += self.dynamics.routing_dropped;
        self.dynamics.estimate_error_ms = self.dispatcher.estimate_error_ms();
        self.dynamics.faults = self.ledger;
        report.dynamics = self.dynamics;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterOptions;
    use coserve_core::presets;
    use coserve_model::devices;
    use coserve_sim::network::LinkProfile;
    use coserve_workload::task::TaskSpec;

    fn fleet(n: usize) -> (ClusterSystem, RequestStream) {
        let task = TaskSpec::a1().scaled(0.08); // 200 requests
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let cluster = ClusterSystem::homogeneous(
            n,
            &device,
            &presets::coserve(&device),
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default(),
        )
        .unwrap();
        let stream = task.stream(cluster.model());
        (cluster, stream)
    }

    fn mid(stream: &RequestStream) -> SimTime {
        SimTime::ZERO
            + SimSpan::from_millis_f64(
                stream
                    .last_arrival()
                    .saturating_since(SimTime::ZERO)
                    .as_millis_f64()
                    / 2.0,
            )
    }

    /// Job conservation for the fleet and for every node.
    fn assert_conserves(report: &ClusterReport) {
        assert_eq!(
            report.completed + report.failed + report.dropped,
            report.submitted
        );
        assert!(report.admitted <= report.submitted);
        for node in &report.nodes {
            assert_eq!(
                node.completed + node.failed + node.dropped,
                node.submitted,
                "{}",
                node.task
            );
            assert!(node.admitted <= node.submitted, "{}", node.task);
        }
    }

    #[test]
    fn failure_at_exact_arrival_instant_fires_first() {
        // Events `at <= arrival` apply before the arrival: the failure
        // lane's smaller sequence numbers win the calendar tie.
        let (cluster, stream) = fleet(4);
        let tie = stream.jobs()[stream.jobs().len() / 2].arrival;
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(40))
            .failures(FailureSchedule::new().kill(2, tie));
        let report = cluster.serve_runtime(&stream, &options);
        assert_eq!(report.dynamics.failures[0].failed_at, tie);
        assert_conserves(&report);
    }

    #[test]
    fn kill_with_a_backlog_reroutes_queued_work() {
        // Two nodes far over capacity: a kill well after the last
        // arrival can only re-route work queued in earlier ticks.
        let (cluster, stream) = fleet(2);
        let at = stream.last_arrival() + SimSpan::from_millis(500);
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(10))
            .failures(FailureSchedule::new().kill(0, at));
        let report = cluster.serve_runtime(&stream, &options);
        assert!(report.dynamics.rerouted > 0, "the backlog must re-route");
        assert_conserves(&report);
        assert_eq!(report.completed, stream.len(), "the survivor serves all");
    }

    #[test]
    fn a_fleet_with_no_live_node_sheds_and_conserves() {
        let (cluster, stream) = fleet(2);
        let at = SimTime::ZERO + SimSpan::from_millis(150);
        for replacement in [ReplacementPolicy::Static, ReplacementPolicy::OnFailure] {
            let options = RuntimeOptions::default()
                .tick(SimSpan::from_millis(40))
                .failures(FailureSchedule::new().kill(0, at).kill(1, at))
                .replacement(replacement);
            let report = cluster.serve_runtime(&stream, &options);
            assert_eq!(report.dynamics.failures.len(), 2, "{replacement}");
            assert!(
                report.dynamics.routing_dropped > 0,
                "{replacement}: a dead fleet sheds"
            );
            assert_conserves(&report);
        }
    }

    #[test]
    fn one_shot_runtime_matches_plain_serve() {
        let (cluster, stream) = fleet(3);
        let via_runtime = cluster.serve_runtime(&stream, &RuntimeOptions::default());
        let plain = cluster.serve(&stream);
        assert_eq!(via_runtime, plain);
        assert_eq!(plain.dynamics.ticks.len(), 1);
        assert_eq!(plain.dynamics.migrations, 0);
        assert_eq!(plain.dynamics.plan_versions, 0);
    }

    #[test]
    fn kill_rereplicates_and_conserves_jobs() {
        let (cluster, stream) = fleet(4);
        let at = mid(&stream);
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(60))
            .failures(FailureSchedule::new().kill(1, at));
        let report = cluster.serve_runtime(&stream, &options);
        assert_conserves(&report);
        assert_eq!(report.dynamics.failures.len(), 1);
        let failure = report.dynamics.failures[0];
        assert_eq!(failure.node, 1);
        assert_eq!(failure.failed_at, at);
        let recovery = report.recovery_time().expect("re-replication recovers");
        assert!(recovery > SimSpan::ZERO);
        assert!(!report.has_unrecovered_failure());
        assert!(report.dynamics.migrations > 0);
        assert!(report.dynamics.migration_bytes > coserve_sim::memory::Bytes::ZERO);
        assert!(report.dynamics.plan_versions >= 1);
        assert_eq!(
            report.dynamics.routing_dropped, 0,
            "recovered fleet serves all"
        );
    }

    #[test]
    fn static_placement_drops_orphaned_chains_forever() {
        let (cluster, stream) = fleet(4);
        let at = mid(&stream);
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(60))
            .failures(FailureSchedule::new().kill(1, at))
            .replacement(ReplacementPolicy::Static);
        let report = cluster.serve_runtime(&stream, &options);
        assert!(report.has_unrecovered_failure());
        assert_eq!(report.recovery_time(), None);
        assert!(
            report.dynamics.routing_dropped > 0,
            "orphaned shard must reject chains"
        );
        assert_eq!(report.dynamics.migrations, 0);
        assert_conserves(&report);
    }

    /// A drifted Poisson stream above capacity on a 4-node least-loaded
    /// fleet with a bounded admission queue. Service-scale feedback
    /// cannot stop the per-tick bursts that overflow a node's admission
    /// queue — the burst is already sent when the drop telemetry
    /// arrives — so corrected dispatch trails the open-loop estimates on
    /// the drifted tail.
    #[test]
    fn corrected_feedback_trails_open_loop_on_a_drifted_tail() {
        let task = TaskSpec::a1();
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let cluster = ClusterSystem::homogeneous(
            4,
            &device,
            &presets::coserve(&device),
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default().route(crate::dispatch::RoutePolicy::LeastLoaded),
        )
        .unwrap();
        let board = task.board();
        let drifted = board.drifted(board.num_components() / 2);
        let stream = RequestStream::generate_open_loop(
            "drifted poisson",
            &drifted,
            cluster.model(),
            900,
            coserve_workload::arrivals::ArrivalProcess::poisson(200.0),
            coserve_workload::stream::StreamOrder::Iid,
            7,
        );
        let horizon = stream.last_arrival().saturating_since(SimTime::ZERO);
        let tick = SimSpan::from_millis_f64((horizon.as_millis_f64() / 12.0).max(1.0));
        let admission = AdmissionControl::with_queue_capacity(16);
        let options = RuntimeOptions::default()
            .tick(tick)
            .feedback(FeedbackMode::Corrected)
            .online(admission, presets::ONLINE_MAX_OVERTAKE);
        let corrected = cluster.serve_runtime(&stream, &options);
        let open =
            cluster.serve_runtime(&stream, &options.clone().feedback(FeedbackMode::OpenLoop));

        assert_conserves(&corrected);
        let p95 = |r: &ClusterReport| r.latency_summary().expect("requests completed").p95;
        assert!(
            p95(&corrected) > p95(&open),
            "corrected {:.1} ms no longer trails open-loop {:.1} ms",
            p95(&corrected),
            p95(&open)
        );
    }

    /// fig24's partition-hedge cell, traced: every hedge the ledger
    /// counts is on the timeline once, on the node it moved the job to,
    /// away from a different first choice. Tracing changes no figure.
    #[test]
    fn traced_partition_hedges_record_every_hedge() {
        use crate::dispatch::RoutePolicy;
        use crate::placement::PlacementStrategy;
        use coserve_faults::FaultWindow;
        use coserve_trace::RingTracer;
        use coserve_workload::arrivals::ArrivalProcess;
        use coserve_workload::stream::StreamOrder;

        let device = devices::numa_rtx3080ti();
        let task = TaskSpec::a1();
        let model = task.build_model().unwrap();
        let stream = RequestStream::generate_open_loop(
            "A1 poisson 150/s",
            task.board(),
            &model,
            240,
            ArrivalProcess::poisson(150.0),
            StreamOrder::Iid,
            7,
        );
        let cluster = ClusterSystem::homogeneous(
            4,
            &device,
            &presets::coserve(&device),
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default()
                .placement(PlacementStrategy::Sharded)
                .route(RoutePolicy::RoundRobin),
        )
        .unwrap();
        let horizon = stream.last_arrival().saturating_since(SimTime::ZERO);
        let partition = FaultPlan::seeded(24).with_link(
            0.0,
            1.0,
            vec![(0, 1), (0, 2), (0, 3)],
            FaultWindow::ALWAYS,
        );
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis_f64(
                (horizon.as_millis_f64() / 12.0).max(1.0),
            ))
            .faults(partition)
            .hedge(true);
        let untraced = cluster.serve_runtime(&stream, &options);

        let mut tracer = RingTracer::new();
        let traced = cluster.serve_runtime_traced(&stream, &options, &mut tracer);
        assert_eq!(untraced, traced, "tracing must not perturb the run");
        let hedges: Vec<(u32, u32, u32)> = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::HedgedReroute { from, to, .. } => Some((e.node, from, to)),
                _ => None,
            })
            .collect();
        assert!(!hedges.is_empty(), "the partition must force hedges");
        assert_eq!(hedges.len() as u64, traced.dynamics.faults.hedged_reroutes);
        for (node, from, to) in hedges {
            assert_ne!(from, to, "a hedge moves the job");
            assert_eq!(node, to, "stamped on the node it moved to");
        }
    }

    #[test]
    fn traced_runtime_matches_untraced_and_records_fleet_events() {
        use coserve_trace::RingTracer;
        let (cluster, stream) = fleet(4);
        let at = mid(&stream);
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(50))
            .failures(FailureSchedule::new().kill(2, at));
        let untraced = cluster.serve_runtime(&stream, &options);

        let mut tracer = RingTracer::new();
        let traced = cluster.serve_runtime_traced(&stream, &options, &mut tracer);
        assert_eq!(untraced, traced, "tracing must not perturb the run");
        let events = tracer.drain();

        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("node-killed"), 1);
        assert_eq!(count("replanned"), 1, "the kill re-plans once");
        assert_eq!(count("migration-start"), count("migration-land"));
        assert_eq!(count("migration-start") as u64, traced.dynamics.migrations);
        assert!(traced.dynamics.migrations > 0);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::NodeKilled { .. }) && e.node == 2 && e.at == at));
        // Every copy is its receiver's checkpoint reload of the expert.
        for e in &events {
            if let TraceKind::MigrationStarted { expert, span } = e.kind {
                let bytes = cluster.model().weight_bytes(expert);
                let receiver = &cluster.nodes()[e.node as usize];
                let reload = receiver
                    .device()
                    .transfer_duration(bytes, TransferRoute::SsdToCpu);
                assert_eq!(span, reload, "{expert} on node {}", e.node);
            }
        }

        // Determinism: a second traced run records identical events.
        let mut tracer2 = RingTracer::new();
        let traced2 = cluster.serve_runtime_traced(&stream, &options, &mut tracer2);
        assert_eq!(traced, traced2);
        assert_eq!(events, tracer2.drain());
    }

    #[test]
    fn traced_static_runtime_records_sheds() {
        use coserve_trace::RingTracer;
        let (cluster, stream) = fleet(4);
        let options = RuntimeOptions::default()
            .tick(SimSpan::from_millis(60))
            .failures(FailureSchedule::new().kill(1, mid(&stream)))
            .replacement(ReplacementPolicy::Static);
        let mut tracer = RingTracer::new();
        let report = cluster.serve_runtime_traced(&stream, &options, &mut tracer);
        let sheds = tracer
            .events()
            .filter(|e| matches!(e.kind, TraceKind::Shed { .. }))
            .count();
        assert_eq!(sheds, report.dynamics.routing_dropped);
        assert!(sheds > 0, "orphaned shard must shed chains");
    }

    #[test]
    fn failure_schedule_validates_and_orders() {
        let (early, late) = (
            SimTime::ZERO + SimSpan::from_millis(10),
            SimTime::ZERO + SimSpan::from_millis(90),
        );
        let schedule = FailureSchedule::new().kill(1, late).kill(0, early);
        assert_eq!(schedule.max_node(), Some(1));
        assert_eq!(
            schedule.events(),
            [
                FailureEvent { at: early, node: 0 },
                FailureEvent { at: late, node: 1 },
            ]
        );
        assert_eq!(FailureSchedule::new().max_node(), None);
        assert_eq!(ReplacementPolicy::Static.to_string(), "static");
        assert_eq!(ReplacementPolicy::OnFailure.to_string(), "re-replicate");
    }

    #[test]
    #[should_panic(expected = "names node 7")]
    fn out_of_range_failure_panics() {
        let (cluster, stream) = fleet(2);
        let options =
            RuntimeOptions::default().failures(FailureSchedule::new().kill(7, SimTime::ZERO));
        let _ = cluster.serve_runtime(&stream, &options);
    }

    #[test]
    fn disabled_fault_plan_serves_bit_identically() {
        let (cluster, stream) = fleet(3);
        let options = RuntimeOptions::default().tick(SimSpan::from_millis(120));
        let plain = cluster.serve_runtime(&stream, &options);
        let armed_disabled = cluster.serve_runtime(
            &stream,
            &options
                .clone()
                .faults(coserve_faults::FaultPlan::disabled())
                .hedge(false),
        );
        assert_eq!(plain, armed_disabled);
        assert!(plain.dynamics.faults.is_empty());
    }

    #[test]
    fn slow_node_windows_are_accounted_and_traced() {
        let (cluster, stream) = fleet(3);
        let plan = coserve_faults::FaultPlan::seeded(11).with_slow_nodes(
            vec![0],
            5.0,
            coserve_faults::FaultWindow::ALWAYS,
        );
        let base = RuntimeOptions::default()
            .tick(SimSpan::from_millis(30))
            .faults(plan);
        let mut tracer = coserve_trace::RingTracer::new();
        let report = cluster.serve_runtime_traced(&stream, &base, &mut tracer);
        let faults = report.dynamics.faults;
        assert!(faults.slow_node_ticks > 0, "always-on window must fire");
        assert!(faults.degraded_time > SimSpan::ZERO);
        assert!(faults.recovery_span().is_some());
        let events = tracer.drain();
        let slow_events = events
            .iter()
            .filter(|e| e.kind.name() == "slow-node")
            .count() as u64;
        assert_eq!(slow_events, faults.slow_node_ticks);
        assert!(
            events
                .iter()
                .filter(|e| e.kind.name() == "slow-node")
                .all(|e| e.node == 0),
            "only node 0 is in the slow window"
        );
        // The dilation shows up in the control loop's latency ledger.
        let plain = cluster.serve_runtime(
            &stream,
            &RuntimeOptions::default().tick(SimSpan::from_millis(30)),
        );
        let p95 = |r: &ClusterReport| {
            r.dynamics
                .ticks
                .iter()
                .filter_map(|t| t.p95_ms)
                .fold(0.0f64, f64::max)
        };
        assert!(
            p95(&report) > p95(&plain),
            "5x dilation must raise the worst tick p95"
        );
        // The slow node's own engine did the stretched work: its report
        // shows it, and routing (open loop) is unchanged.
        assert!(report.nodes[0].exec_time_total > plain.nodes[0].exec_time_total);
        assert_eq!(report.nodes[1].submitted, plain.nodes[1].submitted);
    }

    mod proptests {
        use super::*;
        use coserve_faults::FaultWindow;
        use coserve_sim::rng::SimRng;
        use coserve_workload::arrivals::ArrivalProcess;
        use coserve_workload::stream::StreamOrder;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Without feedback, failures or faults the tick length
            /// only slices the telemetry timeline: each node's
            /// session receives the same jobs in the same order and is
            /// merely pumped in more pieces, so the report equals the
            /// single-tick run's.
            #[test]
            fn tick_length_does_not_change_results(
                seed in 0u64..1_000,
                tick_ms in 1u64..=400,
                nodes in 1usize..=4,
                rate in 20u64..400,
                poisson in 0u8..2,
            ) {
                let (cluster, _) = fleet(nodes);
                let (board, model) = (TaskSpec::a1().board().clone(), cluster.model());
                let stream = if poisson == 1 {
                    let arrivals = ArrivalProcess::poisson(rate as f64);
                    RequestStream::generate_open_loop(
                        "poisson", &board, model, 200, arrivals, StreamOrder::Iid, seed,
                    )
                } else {
                    let interval = SimSpan::from_nanos(1_000_000_000 / rate);
                    let order = StreamOrder::BoardOrder;
                    TaskSpec::new("conveyor", board, 200, interval, order, seed).stream(model)
                };
                let one_shot = cluster.serve_runtime(&stream, &RuntimeOptions::default());
                let mut ticked = cluster.serve_runtime(
                    &stream,
                    &RuntimeOptions::default().tick(SimSpan::from_millis(tick_ms)),
                );
                prop_assert!(!ticked.dynamics.ticks.is_empty());
                ticked.dynamics.ticks.clone_from(&one_shot.dynamics.ticks);
                ticked.dynamics.estimate_error_ms = one_shot.dynamics.estimate_error_ms;
                prop_assert_eq!(ticked, one_shot);
            }

            /// Random ticks, kill schedules (repeated kills of one node
            /// and kills of every node included), feedback, hedging,
            /// online admission, re-placement policies and, half the
            /// time, a seeded fault plan: every job ends exactly once, a
            /// second run is identical, each distinct killed node has
            /// one failure record, a failure recovers exactly when
            /// re-replication had a survivor to land on, every degraded
            /// local read stands for at least one partitioned link, and
            /// a run with no plan armed records no faults.
            #[test]
            fn runtime_conserves_jobs_under_random_options(
                seed in 0u64..1_000,
                tick_ms in 1u64..160,
                failures in 0usize..4,
            ) {
                let nodes = 3 + (seed % 2) as usize;
                let (cluster, stream) = fleet(nodes);
                let horizon = stream.last_arrival().saturating_since(SimTime::ZERO).nanos();
                let mut rng = SimRng::seed_from(seed ^ 0x0ca1_e4da);
                // Random targets, which may repeat a node; a quarter of
                // the runs also kill every node.
                let mut targets: Vec<usize> =
                    (0..failures).map(|_| rng.next_below(nodes as u64) as usize).collect();
                if rng.next_below(4) == 0 {
                    targets.extend(0..nodes);
                }
                let mut schedule = FailureSchedule::new();
                for node in targets {
                    // Up to 1.5x the stream horizon, so some events
                    // land in the drain after the last arrival.
                    let at = SimTime::ZERO
                        + SimSpan::from_nanos(rng.next_below(horizon + horizon / 2));
                    schedule = schedule.kill(node, at);
                }
                let feedback = [FeedbackMode::OpenLoop, FeedbackMode::Corrected];
                let replacement = [ReplacementPolicy::Static, ReplacementPolicy::OnFailure];
                let replacement = replacement[rng.next_below(2) as usize];
                let mut options = RuntimeOptions::default()
                    .tick(SimSpan::from_millis(tick_ms))
                    .failures(schedule.clone())
                    .feedback(feedback[rng.next_below(2) as usize])
                    .replacement(replacement)
                    .hedge(rng.next_below(2) == 1);
                if rng.next_below(2) == 1 {
                    let capacity = 4 + rng.next_below(13) as usize;
                    let admission = AdmissionControl::with_queue_capacity(capacity);
                    options = options.online(admission, presets::ONLINE_MAX_OVERTAKE);
                }
                let armed = rng.next_below(2) == 1;
                if armed {
                    // Each class gets its own window inside the stream
                    // horizon.
                    let mut window = || {
                        let start = SimTime::ZERO + SimSpan::from_nanos(rng.next_below(horizon));
                        FaultWindow::new(start, SimSpan::from_nanos(1 + rng.next_below(horizon)))
                    };
                    let (link, slow) = (window(), window());
                    let a = rng.next_below(nodes as u64) as usize;
                    let b = (a + 1 + rng.next_below(nodes as u64 - 1) as usize) % nodes;
                    let slow_node = rng.next_below(nodes as u64) as usize;
                    let plan = FaultPlan::seeded(seed)
                        .with_link(rng.next_f64(), 1.0 + 4.0 * rng.next_f64(), vec![(a, b)], link)
                        .with_slow_nodes(vec![slow_node], 1.0 + 4.0 * rng.next_f64(), slow);
                    options = options.faults(plan);
                }
                let report = cluster.serve_runtime(&stream, &options);
                prop_assert_eq!(report.submitted, stream.len());
                assert_conserves(&report);
                prop_assert_eq!(report.dynamics.paced_shed, 0);
                // Replay the schedule: the first kill of each node fails
                // it, later ones are no-ops, and re-replication recovers
                // the failure exactly when some node is still alive.
                let mut alive = vec![true; nodes];
                let mut expected = Vec::new();
                for event in schedule.events() {
                    if std::mem::replace(&mut alive[event.node], false) {
                        let survivor = alive.contains(&true);
                        let recovers = replacement == ReplacementPolicy::OnFailure && survivor;
                        expected.push((event.node, event.at, recovers));
                    }
                }
                let failures: Vec<(usize, SimTime, bool)> = report
                    .dynamics
                    .failures
                    .iter()
                    .map(|f| (f.node, f.failed_at, f.recovered_at.is_some()))
                    .collect();
                prop_assert_eq!(failures, expected);
                let faults = report.dynamics.faults;
                prop_assert!(faults.degraded_local <= faults.link_partitioned);
                if !armed {
                    prop_assert!(faults.is_empty());
                }
                prop_assert_eq!(&report, &cluster.serve_runtime(&stream, &options));
            }
        }
    }
}
