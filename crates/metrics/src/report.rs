//! Run reports.
//!
//! Every serving run produces a [`RunReport`]: the throughput and
//! expert-switch counts the paper's Figures 13–16 plot, plus the
//! latency ledgers behind Figure 19, per-executor accounting for
//! debugging and utilization analysis, and — for open-loop online
//! serving — admission/drop counters and per-stage latency ledgers
//! backing tail-latency (p50/p90/p95/p99) SLO reporting.

use std::collections::BTreeMap;

use coserve_model::expert::ExpertId;
use coserve_sim::device::ProcessorKind;
use coserve_sim::memory::{Bytes, MemoryTier};
use coserve_sim::time::{SimSpan, SimTime};

use crate::stats::Summary;

/// One expert load into an executor's model pool after initialization —
/// an "expert switch" in the paper's accounting (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// When the switch started.
    pub at: SimTime,
    /// Index of the executor that loaded the expert.
    pub executor: usize,
    /// The expert that was loaded.
    pub expert: ExpertId,
    /// Where the expert came from ([`MemoryTier::Cpu`] = staging cache,
    /// [`MemoryTier::Ssd`] = cold load).
    pub source: MemoryTier,
    /// End-to-end load duration.
    pub duration: SimSpan,
}

/// Per-executor accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorReport {
    /// Executor index (stable across the run).
    pub index: usize,
    /// Which processor the executor ran on.
    pub processor: ProcessorKind,
    /// Batches executed.
    pub batches: u64,
    /// Requests (batch items) executed.
    pub items: u64,
    /// Time spent executing batches.
    pub exec_time: SimSpan,
    /// Time spent switching experts.
    pub switch_time: SimSpan,
    /// Expert switches performed.
    pub switches: u64,
    /// Model-pool capacity.
    pub pool_capacity: Bytes,
    /// Peak model-pool usage.
    pub pool_peak: Bytes,
    /// When the executor completed its last batch.
    pub finished_at: SimTime,
}

/// Accounting for one shared hardware channel (GPU compute, DMA, SSD,
/// CPU compute, scheduler thread).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReport {
    /// Channel name.
    pub name: &'static str,
    /// Total committed busy time.
    pub busy: SimSpan,
    /// Number of reservations served.
    pub reservations: u64,
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Serving system name (e.g. "CoServe Best", "Samba-CoE").
    pub system: String,
    /// Device name.
    pub device: String,
    /// Task name.
    pub task: String,
    /// Primary requests submitted.
    pub submitted: usize,
    /// Primary requests fully completed (all stages done).
    pub completed: usize,
    /// Primary requests that could not be served (e.g. an expert that
    /// fits in no pool).
    pub failed: usize,
    /// Primary requests whose first stage passed admission control
    /// (equals `submitted` when no admission bound is configured).
    pub admitted: usize,
    /// Primary requests dropped by admission control at any stage —
    /// the open-loop overload/backpressure counter.
    pub dropped: usize,
    /// Total stages executed (a two-stage job counts twice).
    pub stages_executed: usize,
    /// Time from the first arrival to the last completion.
    pub makespan: SimSpan,
    /// All expert switches, in order.
    pub switch_events: Vec<SwitchEvent>,
    /// Total time executors spent switching.
    pub switch_time_total: SimSpan,
    /// Total time executors spent executing.
    pub exec_time_total: SimSpan,
    /// Per-job sojourn times (arrival → final-stage completion) for
    /// completed jobs.
    pub job_latencies: Vec<SimSpan>,
    /// Per-stage sojourn times (stage enqueued → stage batch finished),
    /// keyed by stage index — the ledger behind per-stage percentile
    /// reporting.
    pub stage_latencies: BTreeMap<u8, Vec<SimSpan>>,
    /// Per-request scheduling processing latencies (Figure 19).
    pub sched_latencies: Vec<SimSpan>,
    /// Per-executor accounting.
    pub executors: Vec<ExecutorReport>,
    /// Shared-channel accounting.
    pub channels: Vec<ChannelReport>,
}

impl RunReport {
    /// A zero report for a system that was handed no work: every
    /// counter and ledger empty, makespan zero. Cluster merges use this
    /// for nodes the dispatcher routed nothing to, keeping the
    /// zero-semantics decision next to the type that owns it.
    #[must_use]
    pub fn empty(
        system: impl Into<String>,
        device: impl Into<String>,
        task: impl Into<String>,
    ) -> RunReport {
        RunReport {
            system: system.into(),
            device: device.into(),
            task: task.into(),
            submitted: 0,
            completed: 0,
            failed: 0,
            admitted: 0,
            dropped: 0,
            stages_executed: 0,
            makespan: SimSpan::ZERO,
            switch_events: Vec::new(),
            switch_time_total: SimSpan::ZERO,
            exec_time_total: SimSpan::ZERO,
            job_latencies: Vec::new(),
            stage_latencies: BTreeMap::new(),
            sched_latencies: Vec::new(),
            executors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Folds another report for the *same* system/device into this one
    /// — how the cluster runtime joins a node's lives: a kill closes
    /// the node's engine session and a revival opens a fresh one, so
    /// this runs once per revival. Counters and ledgers sum or extend;
    /// the makespan takes the maximum (both lives share the global time
    /// origin); switch events are re-sorted chronologically; executors
    /// merge by index and channels by name.
    pub fn absorb(&mut self, other: RunReport) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.admitted += other.admitted;
        self.dropped += other.dropped;
        self.stages_executed += other.stages_executed;
        self.makespan = self.makespan.max(other.makespan);
        self.switch_events.extend(other.switch_events);
        self.switch_events
            .sort_by_key(|s| (s.at, s.executor, s.expert));
        self.switch_time_total += other.switch_time_total;
        self.exec_time_total += other.exec_time_total;
        self.job_latencies.extend(other.job_latencies);
        for (stage, latencies) in other.stage_latencies {
            self.stage_latencies
                .entry(stage)
                .or_default()
                .extend(latencies);
        }
        self.sched_latencies.extend(other.sched_latencies);
        for e in other.executors {
            match self.executors.iter_mut().find(|x| x.index == e.index) {
                Some(mine) => {
                    mine.batches += e.batches;
                    mine.items += e.items;
                    mine.exec_time += e.exec_time;
                    mine.switch_time += e.switch_time;
                    mine.switches += e.switches;
                    mine.pool_peak = mine.pool_peak.max(e.pool_peak);
                    mine.finished_at = mine.finished_at.max(e.finished_at);
                }
                None => self.executors.push(e),
            }
        }
        self.executors.sort_by_key(|e| e.index);
        for c in other.channels {
            match self.channels.iter_mut().find(|x| x.name == c.name) {
                Some(mine) => {
                    mine.busy += c.busy;
                    mine.reservations += c.reservations;
                }
                None => self.channels.push(c),
            }
        }
    }

    /// Throughput in images (primary requests) per second — the paper's
    /// headline metric.
    ///
    /// Zero when nothing completed or the makespan is empty.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Total number of expert switches (Figure 14's metric).
    #[must_use]
    pub fn expert_switches(&self) -> u64 {
        self.switch_events.len() as u64
    }

    /// Switches served from the CPU staging cache.
    #[must_use]
    pub fn switches_from_cpu(&self) -> u64 {
        self.switch_events
            .iter()
            .filter(|s| s.source == MemoryTier::Cpu)
            .count() as u64
    }

    /// Switches served cold from SSD.
    #[must_use]
    pub fn switches_from_ssd(&self) -> u64 {
        self.switch_events
            .iter()
            .filter(|s| s.source == MemoryTier::Ssd)
            .count() as u64
    }

    /// Summary of job sojourn latencies, if any job completed.
    #[must_use]
    pub fn latency_summary(&self) -> Option<Summary> {
        Summary::of_spans(&self.job_latencies)
    }

    /// Summary of scheduling latencies, if recorded.
    #[must_use]
    pub fn sched_summary(&self) -> Option<Summary> {
        Summary::of_spans(&self.sched_latencies)
    }

    /// Summary of sojourn latencies for one stage index, if any request
    /// of that stage completed.
    #[must_use]
    pub fn stage_summary(&self, stage: u8) -> Option<Summary> {
        Summary::of_spans(self.stage_latencies.get(&stage)?)
    }

    /// The stage indices with recorded latencies, in order.
    #[must_use]
    pub fn stages(&self) -> Vec<u8> {
        self.stage_latencies.keys().copied().collect()
    }

    /// Fraction of submitted requests dropped by admission control
    /// (zero for closed-loop runs).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.submitted as f64
    }

    /// Fraction of *submitted* requests that completed within `slo` —
    /// the goodput-style SLO-attainment metric of open-loop serving
    /// comparisons. Dropped and failed requests count as violations:
    /// a system shedding 90 % of its load must not report near-100 %
    /// attainment off the survivors. `None` when nothing was submitted.
    #[must_use]
    pub fn slo_attainment(&self, slo: SimSpan) -> Option<f64> {
        if self.submitted == 0 {
            return None;
        }
        let met = self.job_latencies.iter().filter(|&&l| l <= slo).count();
        Some(met as f64 / self.submitted as f64)
    }

    /// Mean inference latency per *request* — total execution time
    /// divided by stages executed (the per-image inference latency of
    /// Figure 19).
    #[must_use]
    pub fn mean_exec_latency_ms(&self) -> f64 {
        if self.stages_executed == 0 {
            return 0.0;
        }
        self.exec_time_total.as_millis_f64() / self.stages_executed as f64
    }

    /// The report as a JSON object — headline metrics, latency
    /// summaries and per-executor/channel accounting, machine-readable
    /// without scraping [`RunReport::summary_line`]. Switch *events*
    /// are summarized by count and source (the full ledger can run to
    /// thousands of entries).
    #[must_use]
    pub fn to_json(&self) -> String {
        let executors: Vec<String> = self
            .executors
            .iter()
            .map(|e| {
                format!(
                    "{{\"index\":{},\"processor\":{},\"batches\":{},\"items\":{},\
                     \"exec_ms\":{},\"switch_ms\":{},\"switches\":{},\
                     \"pool_capacity_bytes\":{},\"pool_peak_bytes\":{}}}",
                    e.index,
                    json_str(&e.processor.to_string()),
                    e.batches,
                    e.items,
                    json_f64(e.exec_time.as_millis_f64()),
                    json_f64(e.switch_time.as_millis_f64()),
                    e.switches,
                    e.pool_capacity.get(),
                    e.pool_peak.get(),
                )
            })
            .collect();
        let channels: Vec<String> = self
            .channels
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"busy_ms\":{},\"reservations\":{}}}",
                    json_str(c.name),
                    json_f64(c.busy.as_millis_f64()),
                    c.reservations,
                )
            })
            .collect();
        let stages: Vec<String> = self
            .stages()
            .into_iter()
            .map(|s| {
                format!(
                    "{{\"stage\":{},\"latency\":{}}}",
                    s,
                    json_summary(self.stage_summary(s))
                )
            })
            .collect();
        format!(
            "{{\"system\":{},\"device\":{},\"task\":{},\
             \"submitted\":{},\"completed\":{},\"failed\":{},\
             \"admitted\":{},\"dropped\":{},\"stages_executed\":{},\
             \"makespan_ms\":{},\"throughput_ips\":{},\"drop_rate\":{},\
             \"expert_switches\":{},\"switches_from_ssd\":{},\"switches_from_cpu\":{},\
             \"switch_time_total_ms\":{},\"exec_time_total_ms\":{},\
             \"latency\":{},\"scheduling\":{},\"stage_latencies\":[{}],\
             \"executors\":[{}],\"channels\":[{}]}}",
            json_str(&self.system),
            json_str(&self.device),
            json_str(&self.task),
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
            self.switches_from_ssd(),
            self.switches_from_cpu(),
            json_f64(self.switch_time_total.as_millis_f64()),
            json_f64(self.exec_time_total.as_millis_f64()),
            json_summary(self.latency_summary()),
            json_summary(self.sched_summary()),
            stages.join(","),
            executors.join(","),
            channels.join(","),
        )
    }

    /// A one-line human-readable summary. Open-loop runs with drops
    /// append the drop count.
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
        format!(
            "{} / {} / {}: {:.1} img/s, {} switches ({} SSD, {} cached), makespan {}{}",
            self.system,
            self.device,
            self.task,
            self.throughput_ips(),
            self.expert_switches(),
            self.switches_from_ssd(),
            self.switches_from_cpu(),
            self.makespan,
            drops
        )
    }
}

/// A non-consuming, allocation-light view of a run's live counters.
///
/// Built mid-run by the engine session (for the server's admin
/// endpoint) or from a finished [`RunReport`] via
/// [`RunReport::snapshot`]. Unlike cloning a report, a snapshot never
/// copies the latency/switch ledgers: the latency distribution is
/// reduced to a [`Summary`] in place.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Serving system name.
    pub system: String,
    /// Device name.
    pub device: String,
    /// Task / session label.
    pub task: String,
    /// Jobs submitted so far.
    pub submitted: usize,
    /// Jobs fully completed.
    pub completed: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Jobs past admission control.
    pub admitted: usize,
    /// Jobs dropped by admission control.
    pub dropped: usize,
    /// Stages executed.
    pub stages_executed: usize,
    /// Time from the first arrival to the latest completion.
    pub makespan: SimSpan,
    /// Events still pending in the session calendar (zero for a
    /// finished run).
    pub pending_events: usize,
    /// Terminal job records produced but not yet taken via
    /// `drain_completions` — the completion backlog a live consumer
    /// (e.g. a server connection) still has to collect (zero for a
    /// finished, fully drained run, and for a snapshot derived from a
    /// [`RunReport`]: a report is a final artifact, not a live queue).
    pub completions_pending: usize,
    /// Expert switches so far.
    pub expert_switches: u64,
    /// Total executor time spent switching.
    pub switch_time_total: SimSpan,
    /// Total executor time spent executing.
    pub exec_time_total: SimSpan,
    /// Completed-job sojourn summary, if any job completed.
    pub latency: Option<Summary>,
}

impl RunSnapshot {
    /// Completed jobs per second over the makespan so far.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// The snapshot as a JSON object (same field conventions as
    /// [`RunReport::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"system\":{},\"device\":{},\"task\":{},\
             \"submitted\":{},\"completed\":{},\"failed\":{},\
             \"admitted\":{},\"dropped\":{},\"stages_executed\":{},\
             \"makespan_ms\":{},\"throughput_ips\":{},\"pending_events\":{},\
             \"completions_pending\":{},\"expert_switches\":{},\
             \"switch_time_total_ms\":{},\"exec_time_total_ms\":{},\
             \"latency\":{}}}",
            json_str(&self.system),
            json_str(&self.device),
            json_str(&self.task),
            self.submitted,
            self.completed,
            self.failed,
            self.admitted,
            self.dropped,
            self.stages_executed,
            json_f64(self.makespan.as_millis_f64()),
            json_f64(self.throughput_ips()),
            self.pending_events,
            self.completions_pending,
            self.expert_switches,
            json_f64(self.switch_time_total.as_millis_f64()),
            json_f64(self.exec_time_total.as_millis_f64()),
            json_summary(self.latency),
        )
    }
}

impl RunReport {
    /// A live-counter view of this (finished) report; see
    /// [`RunSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            system: self.system.clone(),
            device: self.device.clone(),
            task: self.task.clone(),
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            admitted: self.admitted,
            dropped: self.dropped,
            stages_executed: self.stages_executed,
            makespan: self.makespan,
            pending_events: 0,
            completions_pending: 0,
            expert_switches: self.expert_switches(),
            switch_time_total: self.switch_time_total,
            exec_time_total: self.exec_time_total,
            latency: self.latency_summary(),
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An `f64` as a JSON value; non-finite values become `null` (JSON has
/// no NaN/Infinity literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A latency [`Summary`] as a JSON object, `null` when absent.
pub(crate) fn json_summary(s: Option<Summary>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\"count\":{},\"mean_ms\":{},\"min_ms\":{},\"p50_ms\":{},\
             \"p90_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
            s.count,
            json_f64(s.mean),
            json_f64(s.min),
            json_f64(s.p50),
            json_f64(s.p90),
            json_f64(s.p95),
            json_f64(s.p99),
            json_f64(s.max),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            system: "CoServe".into(),
            device: "NUMA".into(),
            task: "Task A1".into(),
            submitted: 100,
            completed: 100,
            failed: 0,
            admitted: 100,
            dropped: 0,
            stages_executed: 150,
            makespan: SimSpan::from_secs(10),
            switch_events: vec![
                SwitchEvent {
                    at: SimTime::ZERO,
                    executor: 0,
                    expert: ExpertId(5),
                    source: MemoryTier::Ssd,
                    duration: SimSpan::from_millis(800),
                },
                SwitchEvent {
                    at: SimTime::from_nanos(5),
                    executor: 1,
                    expert: ExpertId(6),
                    source: MemoryTier::Cpu,
                    duration: SimSpan::from_millis(60),
                },
            ],
            switch_time_total: SimSpan::from_millis(860),
            exec_time_total: SimSpan::from_secs(3),
            job_latencies: vec![SimSpan::from_millis(40), SimSpan::from_millis(60)],
            stage_latencies: BTreeMap::from([
                (
                    0u8,
                    vec![SimSpan::from_millis(30), SimSpan::from_millis(50)],
                ),
                (1u8, vec![SimSpan::from_millis(10)]),
            ]),
            sched_latencies: vec![SimSpan::from_millis(8)],
            executors: vec![ExecutorReport {
                index: 0,
                processor: ProcessorKind::Gpu,
                batches: 20,
                items: 100,
                exec_time: SimSpan::from_secs(2),
                switch_time: SimSpan::from_millis(800),
                switches: 1,
                pool_capacity: Bytes::gib(3),
                pool_peak: Bytes::gib(2),
                finished_at: SimTime::ZERO + SimSpan::from_secs(10),
            }],
            channels: vec![ChannelReport {
                name: "gpu-compute",
                busy: SimSpan::from_secs(2),
                reservations: 20,
            }],
        }
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = RunReport::empty("sys", "dev", "task");
        assert_eq!(r.submitted, 0);
        assert_eq!(r.throughput_ips(), 0.0);
        assert_eq!(r.expert_switches(), 0);
        assert_eq!(r.drop_rate(), 0.0);
        assert!(r.latency_summary().is_none());
        assert_eq!(r.makespan, SimSpan::ZERO);
        assert!(r.to_json().contains("\"system\":\"sys\""));
    }

    #[test]
    fn throughput_is_completed_over_makespan() {
        let r = sample_report();
        assert!((r.throughput_ips() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_of_empty_run_is_zero() {
        let mut r = sample_report();
        r.makespan = SimSpan::ZERO;
        assert_eq!(r.throughput_ips(), 0.0);
    }

    #[test]
    fn switch_accounting_by_source() {
        let r = sample_report();
        assert_eq!(r.expert_switches(), 2);
        assert_eq!(r.switches_from_ssd(), 1);
        assert_eq!(r.switches_from_cpu(), 1);
    }

    #[test]
    fn latency_summaries() {
        let r = sample_report();
        let lat = r.latency_summary().unwrap();
        assert!((lat.mean - 50.0).abs() < 1e-9);
        let sched = r.sched_summary().unwrap();
        assert_eq!(sched.count, 1);
        assert!((r.mean_exec_latency_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn summary_line_mentions_key_numbers() {
        let line = sample_report().summary_line();
        assert!(line.contains("10.0 img/s"));
        assert!(line.contains("2 switches"));
        assert!(line.contains("CoServe"));
    }

    #[test]
    fn mean_exec_latency_of_empty_run() {
        let mut r = sample_report();
        r.stages_executed = 0;
        assert_eq!(r.mean_exec_latency_ms(), 0.0);
    }

    #[test]
    fn stage_summaries_cover_recorded_stages() {
        let r = sample_report();
        assert_eq!(r.stages(), vec![0, 1]);
        let s0 = r.stage_summary(0).unwrap();
        assert_eq!(s0.count, 2);
        assert!((s0.mean - 40.0).abs() < 1e-9);
        assert_eq!(r.stage_summary(1).unwrap().count, 1);
        assert!(r.stage_summary(7).is_none());
    }

    #[test]
    fn to_json_is_machine_readable() {
        let r = sample_report();
        let json = r.to_json();
        // Headline metrics appear as fields, not prose.
        assert!(json.contains("\"system\":\"CoServe\""));
        assert!(json.contains("\"completed\":100"));
        assert!(json.contains("\"throughput_ips\":10"));
        assert!(json.contains("\"expert_switches\":2"));
        assert!(json.contains("\"p99_ms\":"));
        assert!(json.contains("\"channels\":[{\"name\":\"gpu-compute\""));
        // Balanced braces/brackets — the cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_helpers_escape_and_guard() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("tab\tend"), "\"tab\\tend\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_summary(None), "null");
        // Empty-ledger reports still serialize (null summaries).
        let mut r = sample_report();
        r.job_latencies.clear();
        r.sched_latencies.clear();
        assert!(r.to_json().contains("\"latency\":null"));
    }

    #[test]
    fn absorb_sums_counters_and_merges_ledgers() {
        let mut a = sample_report();
        let mut b = sample_report();
        // The second life ran later: its makespan extends the run.
        b.makespan = SimSpan::from_secs(14);
        b.switch_events[0].at = SimTime::ZERO + SimSpan::from_secs(11);
        b.executors[0].finished_at = SimTime::ZERO + SimSpan::from_secs(14);
        b.executors.push(ExecutorReport {
            index: 1,
            processor: ProcessorKind::Cpu,
            batches: 5,
            items: 10,
            exec_time: SimSpan::from_secs(1),
            switch_time: SimSpan::ZERO,
            switches: 0,
            pool_capacity: Bytes::gib(1),
            pool_peak: Bytes::gib(1),
            finished_at: SimTime::ZERO + SimSpan::from_secs(3),
        });
        a.absorb(b);
        assert_eq!(a.submitted, 200);
        assert_eq!(a.completed, 200);
        assert_eq!(a.stages_executed, 300);
        assert_eq!(a.makespan, SimSpan::from_secs(14));
        assert_eq!(a.expert_switches(), 4);
        // Ledgers concatenate; switch events stay chronological.
        assert_eq!(a.job_latencies.len(), 4);
        assert_eq!(a.stage_latencies[&0].len(), 4);
        assert_eq!(a.stage_latencies[&1].len(), 2);
        assert!(a.switch_events.windows(2).all(|w| w[0].at <= w[1].at));
        // Executor 0 merged by index, executor 1 appended.
        assert_eq!(a.executors.len(), 2);
        assert_eq!(a.executors[0].batches, 40);
        assert_eq!(
            a.executors[0].finished_at,
            SimTime::ZERO + SimSpan::from_secs(14)
        );
        assert_eq!(a.executors[1].items, 10);
        // Channels merged by name.
        assert_eq!(a.channels.len(), 1);
        assert_eq!(a.channels[0].reservations, 40);
        assert_eq!(a.channels[0].busy, SimSpan::from_secs(4));
    }

    #[test]
    fn drop_accounting_and_slo() {
        let mut r = sample_report();
        assert_eq!(r.drop_rate(), 0.0);
        assert!(!r.summary_line().contains("dropped"));
        r.dropped = 25;
        r.admitted = 75;
        assert!((r.drop_rate() - 0.25).abs() < 1e-12);
        assert!(r.summary_line().contains("25 dropped (25.0 %)"));
        // SLO attainment is goodput-style: measured over *submitted*
        // requests, so the 98 that recorded no completion latency (and
        // any drops) count as violations, not survivorship.
        r.submitted = 4;
        assert_eq!(r.slo_attainment(SimSpan::from_millis(50)), Some(0.25));
        assert_eq!(r.slo_attainment(SimSpan::from_millis(100)), Some(0.5));
        r.job_latencies.clear();
        assert_eq!(r.slo_attainment(SimSpan::from_millis(50)), Some(0.0));
        // Empty latency ledgers are explicit `None`s, never NaN rows.
        assert!(r.latency_summary().is_none());
        r.submitted = 0;
        assert_eq!(r.drop_rate(), 0.0);
        assert_eq!(r.slo_attainment(SimSpan::from_millis(50)), None);
    }
}
