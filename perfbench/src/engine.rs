//! Driving engine sessions the live-service way, and folding the
//! reports the program exports into the benchmark's metrics.
//!
//! [`serve_session`] streams a request stream through
//! `EngineSession::submit` / `pump_until` / `drain_completions` in fixed
//! simulated-time chunks and checks job conservation at the end.
//! [`SimAgg`] pools `RunReport`s into the simulated serving-quality
//! metrics and the pool/scheduler/executor layer counters, and
//! [`EngineLayer`] holds the host-side engine layer numbers of a traced
//! run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use coserve_core::engine::CompletionStatus;
use coserve_core::system::ServingSystem;
use coserve_metrics::attribution::{ExpertHeat, LatencyAttribution};
use coserve_metrics::cluster::ClusterReport;
use coserve_metrics::report::RunReport;
use coserve_sim::memory::MemoryTier;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_trace::{RingTracer, TraceEvent};
use coserve_workload::stream::RequestStream;

use crate::spans::Recorder;
use crate::stats::{self, Metric, Outcomes, Rung, Weighted};

/// Host-side engine layer numbers, gathered only in traced runs.
#[derive(Debug, Default)]
pub struct EngineLayer {
    pub submit_ns: Vec<f64>,
    pub snapshot_ns: Vec<f64>,
    pub pump_ns: f64,
    pub events: u64,
    pub drain_ns: f64,
    pub drained: u64,
    pub requests: u64,
    pub queue_p50_ms: Vec<f64>,
    pub queue_p99_ms: Vec<f64>,
    pub stall_p99_ms: Vec<f64>,
    pub evictions: u64,
    pub trace_events: u64,
    pub ring_dropped: u64,
    /// Traced engine sessions (zero when the workload has none).
    pub sessions: u64,
    /// Host ns per request of whole-stream serve calls.
    pub serve_ns_per_req: Vec<f64>,
}

impl EngineLayer {
    /// Folds one session's drained trace into the attribution medians.
    fn absorb_trace(&mut self, events: &[TraceEvent]) {
        self.trace_events += events.len() as u64;
        if let Some(all) = LatencyAttribution::from_events(events).overall() {
            if let Some(q) = all.queue {
                self.queue_p50_ms.push(q.p50);
                self.queue_p99_ms.push(q.p99);
            }
            if let Some(s) = all.stall {
                self.stall_p99_ms.push(s.p99);
            }
        }
        self.evictions += ExpertHeat::from_events(events)
            .rows()
            .iter()
            .map(|r| r.evictions)
            .sum::<u64>();
    }

    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let n = self.requests.max(1) as f64;
        if self.sessions > 0 {
            let per = |total: f64, count: u64| {
                if count == 0 {
                    0.0
                } else {
                    total / count as f64
                }
            };
            let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
            out.push(Metric::new(
                "engine.submit_ns",
                "ns",
                med(&self.submit_ns),
                self.submit_ns.len(),
            ));
            out.push(Metric::new(
                "engine.ns_per_event",
                "ns",
                per(self.pump_ns, self.events),
                self.events as usize,
            ));
            out.push(Metric::new(
                "engine.events_per_req",
                "count",
                self.events as f64 / n,
                self.requests as usize,
            ));
            out.push(Metric::new(
                "engine.drain_ns_per_completion",
                "ns",
                per(self.drain_ns, self.drained),
                self.drained as usize,
            ));
            out.push(Metric::new(
                "engine.snapshot_us",
                "us",
                med(&self.snapshot_ns) / 1e3,
                self.snapshot_ns.len(),
            ));
            out.push(Metric::new(
                "sched.queue_wait_p50_ms",
                "sim_ms",
                med(&self.queue_p50_ms),
                self.queue_p50_ms.len(),
            ));
            out.push(Metric::new(
                "sched.queue_wait_p99_ms",
                "sim_ms",
                med(&self.queue_p99_ms),
                self.queue_p99_ms.len(),
            ));
            out.push(Metric::new(
                "exec.stall_p99_ms",
                "sim_ms",
                med(&self.stall_p99_ms),
                self.stall_p99_ms.len(),
            ));
            out.push(Metric::new(
                "pool.evictions_per_kreq",
                "count",
                self.evictions as f64 * 1e3 / n,
                self.requests as usize,
            ));
        }
        out.push(Metric::new(
            "trace.events_per_req",
            "count",
            self.trace_events as f64 / n,
            self.requests as usize,
        ));
        out.push(Metric::new(
            "trace.ring_dropped",
            "count",
            self.ring_dropped as f64,
            self.requests as usize,
        ));
    }
}

/// Traced sessions take a `RunSnapshot` every this many steps.
const SNAPSHOT_EVERY: u32 = 16;

/// What one session run returns besides its report.
#[derive(Debug)]
pub struct Served {
    pub report: RunReport,
    pub wall: Duration,
}

/// Serves `stream` through a fresh session of `system`, submitting and
/// pumping in `slice`-long steps of simulated time and draining after
/// every step until the session is idle. A drained completion's host
/// round trip runs from the start of its step's submissions to the
/// drain that returned it; one step's completions share that value, so
/// `rtt_us` stores them as one weighted run. With `layer`, the session
/// runs with a `RingTracer` drained every step and every call is timed.
///
/// # Errors
///
/// A rejected submission or any broken conservation check.
pub fn serve_session(
    system: &ServingSystem,
    stream: &RequestStream,
    slice: SimSpan,
    rtt_us: &mut Weighted,
    mut layer: Option<&mut EngineLayer>,
    rec: &mut Recorder,
    parent: Option<u32>,
) -> Result<Served, String> {
    let start = Instant::now();
    let traced = layer.is_some();
    let mut session = system.session(stream.name());
    let mut trace: Vec<TraceEvent> = Vec::new();
    if traced {
        session.set_tracer(Box::new(RingTracer::new()));
    }
    let jobs = stream.jobs();
    // Host instant each step's submissions began, and each job's step.
    let mut step_start: Vec<Instant> = Vec::new();
    let mut step_of: Vec<u32> = Vec::with_capacity(jobs.len());
    let mut counts = [0usize; 3];
    let mut per_step: BTreeMap<u32, u64> = BTreeMap::new();
    let mut next = 0usize;
    let mut end = SimTime::ZERO;
    loop {
        if next < jobs.len() {
            // Skip empty steps: the next step ends past the next arrival.
            let k = (jobs[next].arrival.nanos() / slice.nanos() + 1)
                .max(end.nanos() / slice.nanos() + 1);
            end = SimTime::from_nanos(k * slice.nanos());
        } else if session.is_idle() {
            break;
        } else {
            end += slice;
        }
        let step = u32::try_from(step_start.len()).map_err(|_| "too many steps")?;
        let req = u64::from(step);
        step_start.push(Instant::now());
        while next < jobs.len() && jobs[next].arrival < end {
            let job = &jobs[next];
            let t0 = traced.then(Instant::now);
            let id = session
                .submit(job.arrival, &job.stages)
                .map_err(|e| format!("submit rejected: {e}"))?;
            if let (Some(t0), Some(l)) = (t0, layer.as_deref_mut()) {
                let t1 = Instant::now();
                l.submit_ns.push(t1.duration_since(t0).as_nanos() as f64);
                rec.record("engine.submit", t0, t1, parent, req);
            }
            if id as usize != step_of.len() {
                return Err(format!("job id {id} out of submission order"));
            }
            step_of.push(step);
            next += 1;
        }
        let t0 = Instant::now();
        let events = session.pump_until(end);
        let t1 = Instant::now();
        let done = session.drain_completions();
        let t2 = Instant::now();
        for c in &done {
            counts[match c.status {
                CompletionStatus::Completed => 0,
                CompletionStatus::Failed => 1,
                CompletionStatus::Dropped => 2,
            }] += 1;
            *per_step.entry(step_of[c.job as usize]).or_default() += 1;
        }
        for (s, n) in std::mem::take(&mut per_step) {
            rtt_us.push(
                t2.duration_since(step_start[s as usize]).as_secs_f64() * 1e6,
                n,
            );
        }
        if let Some(l) = layer.as_deref_mut() {
            l.pump_ns += t1.duration_since(t0).as_nanos() as f64;
            l.events += events as u64;
            l.drain_ns += t2.duration_since(t1).as_nanos() as f64;
            l.drained += done.len() as u64;
            rec.record("engine.pump_until", t0, t1, parent, req);
            rec.record("engine.drain_completions", t1, t2, parent, req);
            if step % SNAPSHOT_EVERY == 0 {
                let t3 = Instant::now();
                std::hint::black_box(session.snapshot());
                let t4 = Instant::now();
                l.snapshot_ns.push(t4.duration_since(t3).as_nanos() as f64);
                rec.record("engine.snapshot", t3, t4, parent, req);
            }
            trace.extend(session.tracer_mut().drain());
        }
    }
    if session.pending_events() != 0 {
        return Err(format!(
            "{} events pending on an idle session",
            session.pending_events()
        ));
    }
    if let Some(l) = layer.as_deref_mut() {
        l.sessions += 1;
        l.requests += jobs.len() as u64;
        let dropped = session.tracer_mut().dropped();
        l.ring_dropped += dropped;
        if dropped != 0 {
            return Err(format!("the trace ring dropped {dropped} events"));
        }
    }
    let report = session.into_report();
    let wall = start.elapsed();
    if let Some(l) = layer {
        l.absorb_trace(&trace);
    }
    let [completed, failed, dropped] = counts;
    check_conservation(
        &report,
        jobs.len(),
        completed + failed + dropped,
        (completed, failed, dropped),
    )?;
    Ok(Served { report, wall })
}

/// Job conservation for one engine run: every submitted job ended in
/// exactly one terminal state, and the drained completions agree with
/// the report.
pub fn check_conservation(
    report: &RunReport,
    submitted: usize,
    drained: usize,
    (completed, failed, dropped): (usize, usize, usize),
) -> Result<(), String> {
    if report.submitted != submitted {
        return Err(format!(
            "report counts {} submitted, benchmark sent {submitted}",
            report.submitted
        ));
    }
    if report.completed + report.failed + report.dropped != submitted {
        return Err(format!(
            "conservation: {submitted} submitted != {} completed + {} failed + {} dropped",
            report.completed, report.failed, report.dropped
        ));
    }
    if drained != submitted {
        return Err(format!(
            "drained {drained} completions for {submitted} submitted jobs"
        ));
    }
    if (completed, failed, dropped) != (report.completed, report.failed, report.dropped) {
        return Err(format!(
            "drained statuses {completed}/{failed}/{dropped} disagree with the report {}/{}/{}",
            report.completed, report.failed, report.dropped
        ));
    }
    Ok(())
}

/// Job conservation for a batch run, where no completions are drained.
pub fn check_totals(report: &RunReport, submitted: usize) -> Result<(), String> {
    check_conservation(
        report,
        submitted,
        submitted,
        (report.completed, report.failed, report.dropped),
    )
}

/// Pooled simulated results of a set of runs.
#[derive(Debug, Default, Clone)]
pub struct SimAgg {
    pub outcomes: Outcomes,
    pub completed: u64,
    pub makespan_s: f64,
    pub latencies_ms: Vec<f64>,
    switches: u64,
    ssd_switches: u64,
    stages: u64,
    switch_time_s: f64,
    exec_time_s: f64,
    exec_slot_s: f64,
    batches: u64,
    items: u64,
    sched_ms: Vec<f64>,
    switch_ms: Vec<f64>,
    cross_hops: u64,
    node_completed: Vec<u64>,
}

impl SimAgg {
    fn absorb_node(&mut self, r: &RunReport, makespan: SimSpan) {
        self.latencies_ms
            .extend(r.job_latencies.iter().map(|l| l.as_millis_f64()));
        self.switches += r.expert_switches();
        self.ssd_switches += r
            .switch_events
            .iter()
            .filter(|s| s.source == MemoryTier::Ssd)
            .count() as u64;
        self.switch_ms
            .extend(r.switch_events.iter().map(|s| s.duration.as_millis_f64()));
        self.stages += r.stages_executed as u64;
        self.switch_time_s += r.switch_time_total.as_secs_f64();
        self.exec_time_s += r.exec_time_total.as_secs_f64();
        self.exec_slot_s += r.executors.len() as f64 * makespan.as_secs_f64();
        self.batches += r.executors.iter().map(|e| e.batches).sum::<u64>();
        self.items += r.executors.iter().map(|e| e.items).sum::<u64>();
        self.sched_ms
            .extend(r.sched_latencies.iter().map(|l| l.as_millis_f64()));
    }

    /// Adds a single-node run of `attempted` requests.
    pub fn absorb_run(&mut self, r: &RunReport, attempted: usize) {
        self.absorb_node(r, r.makespan);
        self.completed += r.completed as u64;
        self.makespan_s += r.makespan.as_secs_f64();
        self.outcomes.add(&Outcomes {
            attempted: attempted as u64,
            failed: r.failed as u64,
            dropped: r.dropped as u64,
            ..Outcomes::default()
        });
        self.node_completed
            .resize(self.node_completed.len().max(1), 0);
        self.node_completed[0] += r.completed as u64;
    }

    /// Adds a cluster run of `attempted` requests.
    pub fn absorb_cluster(&mut self, r: &ClusterReport, attempted: usize) {
        for node in &r.nodes {
            self.absorb_node(node, r.makespan);
        }
        self.completed += r.completed as u64;
        self.makespan_s += r.makespan.as_secs_f64();
        self.cross_hops += r.cross_node_hops;
        self.outcomes.add(&Outcomes {
            attempted: attempted as u64,
            failed: r.failed as u64,
            dropped: (r.dropped + r.dynamics.routing_dropped) as u64,
            shed: r.dynamics.paced_shed,
            ..Outcomes::default()
        });
        self.node_completed
            .resize(self.node_completed.len().max(r.nodes.len()), 0);
        for (acc, node) in self.node_completed.iter_mut().zip(&r.nodes) {
            *acc += node.completed as u64;
        }
    }

    /// p99 of the pooled latencies (ms); infinite when too few requests
    /// completed to carry one.
    pub fn p99_ms(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 99.0).unwrap_or(f64::INFINITY)
    }

    /// The ladder verdict for these runs offered at `rate`.
    pub fn rung(&self, rate: f64) -> Rung {
        Rung {
            rate,
            p99_ms: self.p99_ms(),
            dropped: self.outcomes.dropped + self.outcomes.shed,
            failed: self.outcomes.failed,
        }
    }

    /// The simulated serving-quality metrics.
    pub fn quality(&self, out: &mut Vec<Metric>) -> Result<(), String> {
        let n = self.latencies_ms.len();
        let too_few = || format!("{n} latencies cannot carry a p99");
        let p50 = stats::percentile(&self.latencies_ms, 50.0).ok_or_else(too_few)?;
        let p99 = stats::percentile(&self.latencies_ms, 99.0).ok_or_else(too_few)?;
        out.push(Metric::new(
            "sim_throughput_rps",
            "req/s",
            self.completed as f64 / self.makespan_s,
            self.completed as usize,
        ));
        out.push(Metric::new("sim_latency_p50_ms", "ms", p50, n));
        out.push(Metric::new("sim_latency_p99_ms", "ms", p99, n));
        out.push(Metric::new(
            "slo_attainment",
            "ratio",
            stats::slo_attainment(&self.latencies_ms, self.outcomes.attempted),
            self.outcomes.attempted as usize,
        ));
        Ok(())
    }

    /// Pool, scheduler, executor and dispatch layer counters.
    pub fn layers(&self, out: &mut Vec<Metric>) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        // Zero (with its sample count) when too few samples carry a p99.
        let p99 = |v: &[f64]| stats::percentile(v, 99.0).unwrap_or(0.0);
        let requests = self.outcomes.attempted as f64;
        out.push(Metric::new(
            "sched.batch_items_mean",
            "count",
            ratio(self.items as f64, self.batches as f64),
            self.batches as usize,
        ));
        out.push(Metric::new(
            "sched.overhead_p99_ms",
            "sim_ms",
            p99(&self.sched_ms),
            self.sched_ms.len(),
        ));
        out.push(Metric::new(
            "pool.switches_per_kreq",
            "count",
            ratio(self.switches as f64 * 1e3, requests),
            requests as usize,
        ));
        out.push(Metric::new(
            "pool.hit_ratio",
            "ratio",
            1.0 - ratio(self.switches as f64, self.stages as f64),
            self.stages as usize,
        ));
        out.push(Metric::new(
            "pool.ssd_switch_share",
            "ratio",
            ratio(self.ssd_switches as f64, self.switches as f64),
            self.switches as usize,
        ));
        out.push(Metric::new(
            "pool.switch_p99_ms",
            "sim_ms",
            p99(&self.switch_ms),
            self.switch_ms.len(),
        ));
        out.push(Metric::new(
            "pool.switch_time_share",
            "ratio",
            ratio(self.switch_time_s, self.switch_time_s + self.exec_time_s),
            self.switches as usize,
        ));
        out.push(Metric::new(
            "exec.busy_share",
            "ratio",
            ratio(self.exec_time_s, self.exec_slot_s),
            self.batches as usize,
        ));
        let nodes = self.node_completed.len().max(1);
        let mean = self.node_completed.iter().sum::<u64>() as f64 / nodes as f64;
        let max = self.node_completed.iter().copied().max().unwrap_or(0) as f64;
        out.push(Metric::new(
            "dispatch.cross_hops_per_req",
            "count",
            ratio(self.cross_hops as f64, requests),
            requests as usize,
        ));
        out.push(Metric::new(
            "dispatch.node_imbalance",
            "ratio",
            ratio(max, mean),
            nodes,
        ));
    }
}

/// Runs `f` and returns its result with the host time it took, in ms.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}
