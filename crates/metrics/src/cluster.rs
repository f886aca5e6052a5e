//! Cluster-level run reports.
//!
//! A multi-node serving run produces one [`crate::report::RunReport`]
//! per node; [`ClusterReport`] merges them into fleet-level accounting:
//! aggregate throughput and latency percentiles, per-node utilization,
//! cross-node hop counts and the fabric time those hops cost, plus
//! admission/drop totals. The merge is pure bookkeeping — the
//! dispatcher that owns the fabric supplies the hop counters.

use coserve_sim::memory::Bytes;
use coserve_sim::time::{SimSpan, SimTime};

use crate::faults::FaultLedger;
use crate::report::{json_f64, json_str, json_summary, RunReport};
use crate::stats::Summary;

/// One node failure observed by the cluster runtime, with its recovery
/// milestones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// The node that failed.
    pub node: usize,
    /// When the node died.
    pub failed_at: SimTime,
    /// When the re-replication of the node's orphaned shard finished
    /// landing on the survivors — `None` under a static placement that
    /// never re-replicates, or when no node survived to take the shard
    /// (the shard stays lost).
    pub recovered_at: Option<SimTime>,
}

impl FailureRecord {
    /// Time from the failure to the completed re-replication, `None`
    /// while the shard is still orphaned.
    #[must_use]
    pub fn recovery_time(&self) -> Option<SimSpan> {
        self.recovered_at
            .map(|r| r.saturating_since(self.failed_at))
    }
}

/// Aggregate outcomes of one control tick of the cluster runtime.
///
/// Apart from `routed`, a tick stat counts what *ended* in the tick:
/// nodes carry their backlog across ticks, so a completion or drop
/// lands in the tick it happened in, whichever tick routed the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStat {
    /// Tick index, from zero.
    pub index: u32,
    /// Tick window start.
    pub start: SimTime,
    /// Tick window end (for the final open-ended tick: the last
    /// arrival).
    pub end: SimTime,
    /// Requests the front-end routed (or rejected) during the tick.
    pub routed: usize,
    /// Requests the nodes completed during the tick.
    pub completed: usize,
    /// Requests dropped during the tick (front-end rejections plus
    /// per-node admission drops).
    pub dropped: usize,
    /// Completed requests that met the runtime's SLO.
    pub slo_met: usize,
    /// p95 node-sojourn latency of the tick's completions, ms.
    pub p95_ms: Option<f64>,
}

impl TickStat {
    /// Fraction of the requests that ended in the tick (completed or
    /// dropped) that completed within the SLO — drops count as
    /// violations; `None` when nothing ended.
    #[must_use]
    pub fn slo_attainment(&self) -> Option<f64> {
        let ended = self.completed + self.dropped;
        (ended > 0).then(|| self.slo_met as f64 / ended as f64)
    }
}

/// What the *dynamic* cluster runtime did beyond serving: front-end
/// rejections, re-routes, expert migrations (and the checkpoint reloads
/// they cost), plan re-versioning, failures with recovery milestones,
/// dispatcher estimate quality, and the per-tick timeline.
///
/// All-zero (`Default`) for a plain one-shot serve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetDynamics {
    /// Requests rejected at the front-end because a chain expert had no
    /// live holder (static placement after a failure).
    pub routing_dropped: usize,
    /// Requests shed by dispatcher pacing. The runtime has no pacing,
    /// so this is always zero; the field and its JSON key stay for
    /// readers that sum every front-end rejection.
    pub paced_shed: u64,
    /// In-flight requests pulled back from a dying node and re-routed.
    pub rerouted: u64,
    /// Expert copies re-replicated after failures, each reloaded from
    /// the receiving node's checkpoint store.
    pub migrations: u64,
    /// Total checkpoint bytes those reloads read.
    pub migration_bytes: Bytes,
    /// Total reload time charged for migrations (each copy's
    /// SSD-to-CPU transfer on its receiving node).
    pub migration_time_total: SimSpan,
    /// The placement-plan version at the end of the run (0 = the
    /// offline plan was never touched).
    pub plan_versions: u64,
    /// Node failures in event order.
    pub failures: Vec<FailureRecord>,
    /// Mean absolute error of the dispatcher's work-left estimates
    /// against each tick's observed node finish, ms: a node that
    /// drained reports its last batch, a busy one the tick end plus
    /// its engine's predicted backlog (`None` when no node was
    /// observed with newly routed work).
    pub estimate_error_ms: Option<f64>,
    /// Per-tick timeline (one entry per control tick that saw work).
    pub ticks: Vec<TickStat>,
    /// Injected-fault and recovery accounting (all-zero — and absent
    /// from the JSON — when no fault plan was armed).
    pub faults: FaultLedger,
}

/// The outcome of one cluster serving run.
///
/// Per-node `job_latencies` measure the sojourn *at the node* (from
/// arrival at the node's admission queue to completion); the fabric
/// time a request spent in flight before reaching its node is accounted
/// separately in [`ClusterReport::fabric_time_total`] and
/// [`ClusterReport::cross_node_hops`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Cluster system name (e.g. "CoServe ×4 (usage-aware, residency-first)").
    pub system: String,
    /// Task name.
    pub task: String,
    /// Per-node reports, in node order.
    pub nodes: Vec<RunReport>,
    /// Primary requests submitted to the cluster.
    pub submitted: usize,
    /// Primary requests completed across all nodes.
    pub completed: usize,
    /// Primary requests failed across all nodes.
    pub failed: usize,
    /// Primary requests admitted across all nodes.
    pub admitted: usize,
    /// Primary requests dropped by per-node admission control.
    pub dropped: usize,
    /// Total stages executed across all nodes.
    pub stages_executed: usize,
    /// Cluster makespan: the latest node completion time (all nodes
    /// share the global time origin).
    pub makespan: SimSpan,
    /// Stages whose expert lived on a different node than the one the
    /// request was routed to — each paid one fabric transfer.
    pub cross_node_hops: u64,
    /// Total time requests spent on fabric links.
    pub fabric_time_total: SimSpan,
    /// What the dynamic runtime did (failures, migrations, re-routes,
    /// control-tick timeline); all-zero for a one-shot serve.
    pub dynamics: FleetDynamics,
}

impl ClusterReport {
    /// Merges per-node reports into a cluster report. The dispatcher
    /// supplies the fabric counters; everything else is summed from the
    /// nodes (makespan is the maximum, since nodes share a time
    /// origin).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is empty — a cluster has at least one node.
    #[must_use]
    pub fn merge(
        system: impl Into<String>,
        task: impl Into<String>,
        nodes: Vec<RunReport>,
        cross_node_hops: u64,
        fabric_time_total: SimSpan,
    ) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        ClusterReport {
            system: system.into(),
            task: task.into(),
            submitted: nodes.iter().map(|n| n.submitted).sum(),
            completed: nodes.iter().map(|n| n.completed).sum(),
            failed: nodes.iter().map(|n| n.failed).sum(),
            admitted: nodes.iter().map(|n| n.admitted).sum(),
            dropped: nodes.iter().map(|n| n.dropped).sum(),
            stages_executed: nodes.iter().map(|n| n.stages_executed).sum(),
            makespan: nodes
                .iter()
                .map(|n| n.makespan)
                .fold(SimSpan::ZERO, SimSpan::max),
            cross_node_hops,
            fabric_time_total,
            dynamics: FleetDynamics::default(),
            nodes,
        }
    }

    /// Number of nodes in the fleet.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Aggregate throughput in primary requests per second.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Total expert switches across all nodes.
    #[must_use]
    pub fn expert_switches(&self) -> u64 {
        self.nodes.iter().map(RunReport::expert_switches).sum()
    }

    /// Fraction of submitted requests dropped by admission control.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.submitted as f64
    }

    /// Mean cross-node hops per submitted request — the locality metric
    /// placement/routing ablations compare.
    #[must_use]
    pub fn hops_per_request(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.cross_node_hops as f64 / self.submitted as f64
    }

    /// Aggregate node-sojourn latency summary over every completed job
    /// in the fleet (see the type-level note on fabric accounting).
    #[must_use]
    pub fn latency_summary(&self) -> Option<Summary> {
        let all: Vec<SimSpan> = self
            .nodes
            .iter()
            .flat_map(|n| n.job_latencies.iter().copied())
            .collect();
        Summary::of_spans(&all)
    }

    /// Per-node busy fraction: executor time (execution + switching)
    /// over `executors × cluster makespan`. Idle or workless nodes
    /// report 0.
    #[must_use]
    pub fn node_utilization(&self) -> Vec<f64> {
        let wall = self.makespan.as_secs_f64();
        self.nodes
            .iter()
            .map(|n| {
                let slots = n.executors.len() as f64 * wall;
                if slots <= 0.0 {
                    return 0.0;
                }
                let busy = (n.exec_time_total + n.switch_time_total).as_secs_f64();
                (busy / slots).min(1.0)
            })
            .collect()
    }

    /// Fraction of *submitted* requests completing within `slo` across
    /// the fleet (drops — including front-end rejections — count as
    /// violations). `None` when nothing was submitted.
    #[must_use]
    pub fn slo_attainment(&self, slo: SimSpan) -> Option<f64> {
        if self.submitted == 0 {
            return None;
        }
        let met: usize = self
            .nodes
            .iter()
            .map(|n| n.job_latencies.iter().filter(|&&l| l <= slo).count())
            .sum();
        Some(met as f64 / self.submitted as f64)
    }

    /// The slowest completed recovery across all failures: how long the
    /// fleet took to re-replicate a dead node's orphaned shard. `None`
    /// when no failure recovered (either none happened, or a static
    /// placement left the shard orphaned — see
    /// [`ClusterReport::has_unrecovered_failure`]).
    #[must_use]
    pub fn recovery_time(&self) -> Option<SimSpan> {
        self.dynamics
            .failures
            .iter()
            .filter_map(FailureRecord::recovery_time)
            .max()
    }

    /// Whether any failed node's shard was never re-replicated — the
    /// unbounded-drop regime of a static placement.
    #[must_use]
    pub fn has_unrecovered_failure(&self) -> bool {
        self.dynamics
            .failures
            .iter()
            .any(|f| f.recovered_at.is_none())
    }

    /// A one-line human-readable summary.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let drops = if self.dropped > 0 {
            format!(
                ", {} dropped ({:.1} %)",
                self.dropped,
                100.0 * self.drop_rate()
            )
        } else {
            String::new()
        };
        let migrations = if self.dynamics.migrations > 0 {
            format!(
                ", {} expert migrations ({:.0} MiB)",
                self.dynamics.migrations,
                self.dynamics.migration_bytes.as_mib_f64()
            )
        } else {
            String::new()
        };
        format!(
            "{} / {}: {} nodes, {:.1} img/s, {} switches, {} cross-node hops ({:.2}/req), makespan {}{}{}",
            self.system,
            self.task,
            self.num_nodes(),
            self.throughput_ips(),
            self.expert_switches(),
            self.cross_node_hops,
            self.hops_per_request(),
            self.makespan,
            drops,
            migrations
        )
    }

    /// The cluster report as a JSON object; per-node reports nest via
    /// [`RunReport::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let utilization: Vec<String> = self.node_utilization().into_iter().map(json_f64).collect();
        let nodes: Vec<String> = self.nodes.iter().map(RunReport::to_json).collect();
        format!(
            "{{\"system\":{},\"task\":{},\"num_nodes\":{},\
             \"submitted\":{},\"completed\":{},\"failed\":{},\
             \"admitted\":{},\"dropped\":{},\"stages_executed\":{},\
             \"makespan_ms\":{},\"throughput_ips\":{},\"drop_rate\":{},\
             \"expert_switches\":{},\"cross_node_hops\":{},\"hops_per_request\":{},\
             \"fabric_time_total_ms\":{},\"latency\":{},\
             \"dynamics\":{},\
             \"node_utilization\":[{}],\"nodes\":[{}]}}",
            json_str(&self.system),
            json_str(&self.task),
            self.num_nodes(),
            self.submitted,
            self.completed,
            self.failed,
            self.admitted,
            self.dropped,
            self.stages_executed,
            json_f64(self.makespan.as_millis_f64()),
            json_f64(self.throughput_ips()),
            json_f64(self.drop_rate()),
            self.expert_switches(),
            self.cross_node_hops,
            json_f64(self.hops_per_request()),
            json_f64(self.fabric_time_total.as_millis_f64()),
            json_summary(self.latency_summary()),
            self.dynamics_json(),
            utilization.join(","),
            nodes.join(","),
        )
    }

    /// The runtime-dynamics block of [`ClusterReport::to_json`].
    fn dynamics_json(&self) -> String {
        let d = &self.dynamics;
        let opt_ms = |t: Option<SimTime>| {
            t.map_or_else(
                || "null".to_string(),
                |t| json_f64(t.saturating_since(SimTime::ZERO).as_millis_f64()),
            )
        };
        let failures: Vec<String> = d
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"node\":{},\"failed_at_ms\":{},\"recovered_at_ms\":{},\
                     \"recovery_ms\":{}}}",
                    f.node,
                    json_f64(f.failed_at.saturating_since(SimTime::ZERO).as_millis_f64()),
                    opt_ms(f.recovered_at),
                    f.recovery_time()
                        .map_or_else(|| "null".to_string(), |s| json_f64(s.as_millis_f64())),
                )
            })
            .collect();
        let ticks: Vec<String> = d
            .ticks
            .iter()
            .map(|t| {
                format!(
                    "{{\"index\":{},\"start_ms\":{},\"end_ms\":{},\"routed\":{},\
                     \"completed\":{},\"dropped\":{},\"slo_met\":{},\"p95_ms\":{}}}",
                    t.index,
                    json_f64(t.start.saturating_since(SimTime::ZERO).as_millis_f64()),
                    json_f64(t.end.saturating_since(SimTime::ZERO).as_millis_f64()),
                    t.routed,
                    t.completed,
                    t.dropped,
                    t.slo_met,
                    t.p95_ms.map_or_else(|| "null".to_string(), json_f64),
                )
            })
            .collect();
        format!(
            "{{\"routing_dropped\":{},\"paced_shed\":{},\"rerouted\":{},\"migrations\":{},\
             \"migration_bytes\":{},\"migration_time_ms\":{},\
             \"plan_versions\":{},\"estimate_error_ms\":{},\"recovery_ms\":{},\
             \"unrecovered_failure\":{},\"failures\":[{}],\"ticks\":[{}]{}}}",
            d.routing_dropped,
            d.paced_shed,
            d.rerouted,
            d.migrations,
            d.migration_bytes.get(),
            json_f64(d.migration_time_total.as_millis_f64()),
            d.plan_versions,
            d.estimate_error_ms
                .map_or_else(|| "null".to_string(), json_f64),
            self.recovery_time()
                .map_or_else(|| "null".to_string(), |s| json_f64(s.as_millis_f64())),
            self.has_unrecovered_failure(),
            failures.join(","),
            ticks.join(","),
            // Only faulted runs carry the ledger: the faults-off JSON
            // stays byte-identical to what pre-fault builds emitted.
            if d.faults.is_empty() {
                String::new()
            } else {
                format!(",\"faults\":{}", d.faults.to_json())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_sim::device::ProcessorKind;
    use coserve_sim::memory::Bytes;
    use coserve_sim::time::SimTime;
    use std::collections::BTreeMap;

    fn node_report(name: &str, completed: usize, makespan_secs: u64) -> RunReport {
        RunReport {
            system: name.into(),
            device: "NUMA".into(),
            task: "Task A1".into(),
            submitted: completed + 10,
            completed,
            failed: 4,
            admitted: completed + 6,
            dropped: 6,
            stages_executed: completed,
            makespan: SimSpan::from_secs(makespan_secs),
            switch_events: vec![
                crate::report::SwitchEvent {
                    at: SimTime::ZERO,
                    executor: 0,
                    expert: coserve_model::expert::ExpertId(1),
                    source: coserve_sim::memory::MemoryTier::Ssd,
                    duration: SimSpan::from_millis(800),
                };
                3
            ],
            switch_time_total: SimSpan::from_secs(1),
            exec_time_total: SimSpan::from_secs(2),
            job_latencies: vec![SimSpan::from_millis(40); completed],
            stage_latencies: BTreeMap::new(),
            sched_latencies: Vec::new(),
            executors: vec![crate::report::ExecutorReport {
                index: 0,
                processor: ProcessorKind::Gpu,
                batches: 10,
                items: completed as u64,
                exec_time: SimSpan::from_secs(2),
                switch_time: SimSpan::from_secs(1),
                switches: 3,
                pool_capacity: Bytes::gib(3),
                pool_peak: Bytes::gib(2),
                finished_at: SimTime::ZERO + SimSpan::from_secs(makespan_secs),
            }],
            channels: Vec::new(),
        }
    }

    fn sample_cluster() -> ClusterReport {
        ClusterReport::merge(
            "CoServe ×2",
            "Task A1",
            vec![node_report("n0", 90, 10), node_report("n1", 60, 8)],
            42,
            SimSpan::from_millis(300),
        )
    }

    #[test]
    fn merge_sums_and_takes_max_makespan() {
        let c = sample_cluster();
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.submitted, 90 + 10 + 60 + 10);
        assert_eq!(c.completed, 150);
        assert_eq!(c.failed, 8);
        assert_eq!(c.dropped, 12);
        assert_eq!(c.makespan, SimSpan::from_secs(10));
        assert!((c.throughput_ips() - 15.0).abs() < 1e-9);
        assert_eq!(c.expert_switches(), 6);
        assert_eq!(c.cross_node_hops, 42);
        assert!((c.hops_per_request() - 42.0 / 170.0).abs() < 1e-12);
        assert!((c.drop_rate() - 12.0 / 170.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_merges_all_nodes() {
        let c = sample_cluster();
        let lat = c.latency_summary().unwrap();
        assert_eq!(lat.count, 150);
        assert!((lat.mean - 40.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_busy_over_cluster_wall_clock() {
        let c = sample_cluster();
        let u = c.node_utilization();
        assert_eq!(u.len(), 2);
        // Node 0: 3 s busy / (1 executor × 10 s wall).
        assert!((u[0] - 0.3).abs() < 1e-12);
        // Node 1 also measures against the *cluster* makespan.
        assert!((u[1] - 0.3).abs() < 1e-12);
        for v in u {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn summary_line_and_json_carry_fleet_metrics() {
        let c = sample_cluster();
        let line = c.summary_line();
        assert!(line.contains("2 nodes"));
        assert!(line.contains("42 cross-node hops"));
        assert!(line.contains("12 dropped"));
        let json = c.to_json();
        assert!(json.contains("\"num_nodes\":2"));
        assert!(json.contains("\"cross_node_hops\":42"));
        assert!(json.contains("\"nodes\":[{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_merge_panics() {
        let _ = ClusterReport::merge("x", "t", Vec::new(), 0, SimSpan::ZERO);
    }

    #[test]
    fn dynamics_default_is_inert() {
        let c = sample_cluster();
        assert_eq!(c.dynamics, FleetDynamics::default());
        assert_eq!(c.recovery_time(), None);
        assert!(!c.has_unrecovered_failure());
        assert!(!c.summary_line().contains("migrations"));
        let json = c.to_json();
        assert!(json.contains("\"dynamics\":{\"routing_dropped\":0"));
        assert!(json.contains("\"failures\":[]"));
    }

    #[test]
    fn dynamics_recovery_and_slo_accounting() {
        let mut c = sample_cluster();
        c.dynamics.routing_dropped = 5;
        c.submitted += 5;
        c.dropped += 5;
        c.dynamics.rerouted = 3;
        c.dynamics.migrations = 4;
        c.dynamics.migration_bytes = Bytes::mib(700);
        c.dynamics.migration_time_total = SimSpan::from_millis(90);
        c.dynamics.plan_versions = 2;
        c.dynamics.failures.push(FailureRecord {
            node: 1,
            failed_at: SimTime::ZERO + SimSpan::from_secs(2),
            recovered_at: Some(SimTime::ZERO + SimSpan::from_secs(3)),
        });
        c.dynamics.ticks.push(TickStat {
            index: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimSpan::from_secs(5),
            routed: 100,
            completed: 80,
            dropped: 20,
            slo_met: 60,
            p95_ms: Some(42.0),
        });
        assert_eq!(c.recovery_time(), Some(SimSpan::from_secs(1)));
        assert!(!c.has_unrecovered_failure());
        assert_eq!(
            c.dynamics.failures[0].recovery_time(),
            Some(SimSpan::from_secs(1))
        );
        assert_eq!(c.dynamics.ticks[0].slo_attainment(), Some(0.6));
        // Fleet SLO attainment counts drops as violations: all 150
        // completions are at 40 ms.
        assert_eq!(
            c.slo_attainment(SimSpan::from_millis(40)),
            Some(150.0 / 175.0)
        );
        assert_eq!(c.slo_attainment(SimSpan::from_millis(1)), Some(0.0));
        let line = c.summary_line();
        assert!(line.contains("4 expert migrations (700 MiB)"));
        let json = c.to_json();
        assert!(json.contains("\"recovery_ms\":1000"));
        assert!(json.contains("\"unrecovered_failure\":false"));
        assert!(json.contains("\"migration_bytes\":734003200"));
        assert!(json.contains("\"ticks\":[{\"index\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // A static-placement failure never recovers.
        c.dynamics.failures[0].recovered_at = None;
        assert_eq!(c.recovery_time(), None);
        assert!(c.has_unrecovered_failure());
    }
}
