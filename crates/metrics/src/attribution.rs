//! Trace-derived analytics: latency attribution and expert heat.
//!
//! These summaries consume the typed event stream produced by
//! `coserve-trace` rather than the engine's aggregate ledgers, so they
//! can answer questions the [`crate::report::RunReport`] cannot: *where
//! inside a stage* the time went (queue wait vs. expert switch vs.
//! compute stall vs. execution), and *which experts* were hot, how
//! often they were switched in, and from which memory tier.
//!
//! Both summaries are pure folds over `&[TraceEvent]` — they never
//! mutate the tracer — and iterate in deterministic (`BTreeMap`) order
//! so tables and JSON render identically across runs.

use std::collections::BTreeMap;

use coserve_model::expert::ExpertId;
use coserve_sim::memory::MemoryTier;
use coserve_sim::time::SimSpan;
use coserve_trace::{TraceEvent, TraceKind};

use crate::report::json_f64;
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};

/// Per-stage latency attribution built from `stage-done` trace events.
///
/// For every chain stage index this collects the four sojourn
/// components reported by the engine — queue wait, expert switch,
/// compute-channel stall, and execution — plus their sum (the stage
/// sojourn), and summarizes each as a [`Summary`] in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyAttribution {
    stages: BTreeMap<u8, StageSamples>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct StageSamples {
    queue: Vec<SimSpan>,
    switch: Vec<SimSpan>,
    stall: Vec<SimSpan>,
    exec: Vec<SimSpan>,
    sojourn: Vec<SimSpan>,
}

impl StageSamples {
    fn push(&mut self, queue: SimSpan, switch: SimSpan, stall: SimSpan, exec: SimSpan) {
        self.queue.push(queue);
        self.switch.push(switch);
        self.stall.push(stall);
        self.exec.push(exec);
        self.sojourn.push(queue + switch + stall + exec);
    }

    fn row(&self, stage: u8) -> StageAttribution {
        StageAttribution {
            stage,
            count: self.sojourn.len() as u64,
            queue: Summary::of_spans(&self.queue),
            switch: Summary::of_spans(&self.switch),
            stall: Summary::of_spans(&self.stall),
            exec: Summary::of_spans(&self.exec),
            sojourn: Summary::of_spans(&self.sojourn),
        }
    }
}

/// One row of the attribution table: summaries for a single stage
/// index (or for all stages pooled, from
/// [`LatencyAttribution::overall`]). All summaries are milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// Chain stage index.
    pub stage: u8,
    /// Stage executions observed.
    pub count: u64,
    /// Ready-to-batch-start queue wait.
    pub queue: Option<Summary>,
    /// Expert switch time charged to the batch.
    pub switch: Option<Summary>,
    /// Post-switch wait for the compute channel.
    pub stall: Option<Summary>,
    /// Execution time on the compute channel.
    pub exec: Option<Summary>,
    /// Sum of the four components: the stage sojourn.
    pub sojourn: Option<Summary>,
}

impl LatencyAttribution {
    /// Folds `stage-done` events into per-stage component samples.
    /// Every other event kind is ignored.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut stages: BTreeMap<u8, StageSamples> = BTreeMap::new();
        for ev in events {
            if let TraceKind::StageDone {
                stage,
                queue,
                switch,
                stall,
                exec_span,
                ..
            } = ev.kind
            {
                stages
                    .entry(stage)
                    .or_default()
                    .push(queue, switch, stall, exec_span);
            }
        }
        LatencyAttribution { stages }
    }

    /// Total stage executions across all stage indices.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stages.values().map(|s| s.sojourn.len() as u64).sum()
    }

    /// Whether no `stage-done` events were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// One row per stage index, ascending.
    #[must_use]
    pub fn rows(&self) -> Vec<StageAttribution> {
        self.stages.iter().map(|(&st, s)| s.row(st)).collect()
    }

    /// All stages pooled into a single row (`stage` reported as 0).
    /// `None` when no events were observed.
    #[must_use]
    pub fn overall(&self) -> Option<StageAttribution> {
        if self.stages.is_empty() {
            return None;
        }
        let mut pooled = StageSamples::default();
        for s in self.stages.values() {
            pooled.queue.extend_from_slice(&s.queue);
            pooled.switch.extend_from_slice(&s.switch);
            pooled.stall.extend_from_slice(&s.stall);
            pooled.exec.extend_from_slice(&s.exec);
            pooled.sojourn.extend_from_slice(&s.sojourn);
        }
        Some(pooled.row(0))
    }

    /// The attribution table: mean and p95 (ms) for each component,
    /// one row per stage plus an `all` row when more than one stage
    /// index was observed.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "latency attribution (ms)",
            &[
                "stage", "count", "queue", "q-p95", "switch", "sw-p95", "stall", "st-p95", "exec",
                "ex-p95", "total", "t-p95",
            ],
        );
        let mean_p95 = |s: &Option<Summary>| -> (String, String) {
            match s {
                Some(s) => (fmt_f64(s.mean, 3), fmt_f64(s.p95, 3)),
                None => ("-".to_string(), "-".to_string()),
            }
        };
        let mut push = |label: String, row: &StageAttribution| {
            let (qm, qp) = mean_p95(&row.queue);
            let (wm, wp) = mean_p95(&row.switch);
            let (sm, sp) = mean_p95(&row.stall);
            let (em, ep) = mean_p95(&row.exec);
            let (tm, tp) = mean_p95(&row.sojourn);
            t.row(vec![
                label,
                row.count.to_string(),
                qm,
                qp,
                wm,
                wp,
                sm,
                sp,
                em,
                ep,
                tm,
                tp,
            ]);
        };
        for row in self.rows() {
            push(row.stage.to_string(), &row);
        }
        if self.stages.len() > 1 {
            if let Some(all) = self.overall() {
                push("all".to_string(), &all);
            }
        }
        t
    }

    /// The attribution as a JSON array of per-stage objects.
    #[must_use]
    pub fn to_json(&self) -> String {
        let obj = |row: &StageAttribution| -> String {
            format!(
                "{{\"stage\":{},\"count\":{},\"queue\":{},\"switch\":{},\
                 \"stall\":{},\"exec\":{},\"total\":{}}}",
                row.stage,
                row.count,
                json_component(&row.queue),
                json_component(&row.switch),
                json_component(&row.stall),
                json_component(&row.exec),
                json_component(&row.sojourn),
            )
        };
        let rows: Vec<String> = self.rows().iter().map(obj).collect();
        format!("[{}]", rows.join(","))
    }
}

fn json_component(s: &Option<Summary>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\"mean_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
            json_f64(s.mean),
            json_f64(s.p50),
            json_f64(s.p95),
            json_f64(s.p99),
            json_f64(s.max),
        ),
    }
}

/// Per-expert heat and residency summary built from execution and
/// residency trace events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpertHeat {
    experts: BTreeMap<ExpertId, ExpertHeatRow>,
}

/// Counters for one expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertHeatRow {
    /// The expert.
    pub expert: ExpertId,
    /// Stage executions attributed to this expert (`stage-done`).
    pub stages: u64,
    /// Compute batches that ran this expert (`exec`).
    pub batches: u64,
    /// Total compute time across those batches.
    pub exec_time: SimSpan,
    /// Times the expert was switched into a pool mid-run.
    pub switches: u64,
    /// Total switch time spent bringing the expert in.
    pub switch_time: SimSpan,
    /// Mid-run loads whose weights came from host (CPU) memory.
    pub loads_from_cpu: u64,
    /// Mid-run loads whose weights came from SSD.
    pub loads_from_ssd: u64,
    /// Times the expert was preloaded before serving began.
    pub preloads: u64,
    /// Pool evictions of this expert.
    pub evictions: u64,
    /// Evictions that demoted the weights into the staging cache.
    pub demotions: u64,
    /// Insertions into the shared staging cache.
    pub cache_inserts: u64,
    /// LRU evictions from the staging cache.
    pub cache_evicts: u64,
}

impl ExpertHeatRow {
    fn new(expert: ExpertId) -> Self {
        ExpertHeatRow {
            expert,
            stages: 0,
            batches: 0,
            exec_time: SimSpan::ZERO,
            switches: 0,
            switch_time: SimSpan::ZERO,
            loads_from_cpu: 0,
            loads_from_ssd: 0,
            preloads: 0,
            evictions: 0,
            demotions: 0,
            cache_inserts: 0,
            cache_evicts: 0,
        }
    }
}

impl ExpertHeat {
    /// Folds execution and residency events into per-expert counters.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut experts: BTreeMap<ExpertId, ExpertHeatRow> = BTreeMap::new();
        fn row(
            expert: ExpertId,
            experts: &mut BTreeMap<ExpertId, ExpertHeatRow>,
        ) -> &mut ExpertHeatRow {
            experts
                .entry(expert)
                .or_insert_with(|| ExpertHeatRow::new(expert))
        }
        for ev in events {
            match ev.kind {
                TraceKind::StageDone { expert, .. } => {
                    row(expert, &mut experts).stages += 1;
                }
                TraceKind::Exec { expert, span, .. } => {
                    let r = row(expert, &mut experts);
                    r.batches += 1;
                    r.exec_time += span;
                }
                TraceKind::Switch { expert, span, .. } => {
                    let r = row(expert, &mut experts);
                    r.switches += 1;
                    r.switch_time += span;
                }
                TraceKind::Loaded { expert, source, .. } => {
                    let r = row(expert, &mut experts);
                    match source {
                        MemoryTier::Cpu => r.loads_from_cpu += 1,
                        MemoryTier::Ssd => r.loads_from_ssd += 1,
                        MemoryTier::Gpu => {}
                    }
                }
                TraceKind::Preloaded { expert, .. } => {
                    row(expert, &mut experts).preloads += 1;
                }
                TraceKind::Evicted {
                    expert, demoted, ..
                } => {
                    let r = row(expert, &mut experts);
                    r.evictions += 1;
                    if demoted {
                        r.demotions += 1;
                    }
                }
                TraceKind::CacheInserted { expert } => {
                    row(expert, &mut experts).cache_inserts += 1;
                }
                TraceKind::CacheEvicted { expert } => {
                    row(expert, &mut experts).cache_evicts += 1;
                }
                _ => {}
            }
        }
        ExpertHeat { experts }
    }

    /// Experts observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.experts.len()
    }

    /// Whether no expert events were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }

    /// The counters for one expert, if observed.
    #[must_use]
    pub fn get(&self, expert: ExpertId) -> Option<&ExpertHeatRow> {
        self.experts.get(&expert)
    }

    /// Rows hottest-first: descending stage executions, ties broken by
    /// ascending expert id (deterministic).
    #[must_use]
    pub fn rows(&self) -> Vec<ExpertHeatRow> {
        let mut rows: Vec<ExpertHeatRow> = self.experts.values().copied().collect();
        rows.sort_by(|a, b| b.stages.cmp(&a.stages).then(a.expert.cmp(&b.expert)));
        rows
    }

    /// The heat table, hottest expert first.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "expert heat / residency",
            &[
                "expert",
                "stages",
                "batches",
                "exec-ms",
                "switches",
                "switch-ms",
                "ld-cpu",
                "ld-ssd",
                "preload",
                "evict",
                "demote",
                "cache-in",
                "cache-out",
            ],
        );
        for r in self.rows() {
            t.row(vec![
                format!("e{}", r.expert.index()),
                r.stages.to_string(),
                r.batches.to_string(),
                fmt_f64(r.exec_time.as_millis_f64(), 3),
                r.switches.to_string(),
                fmt_f64(r.switch_time.as_millis_f64(), 3),
                r.loads_from_cpu.to_string(),
                r.loads_from_ssd.to_string(),
                r.preloads.to_string(),
                r.evictions.to_string(),
                r.demotions.to_string(),
                r.cache_inserts.to_string(),
                r.cache_evicts.to_string(),
            ]);
        }
        t
    }

    /// The heat summary as a JSON array, hottest expert first.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows()
            .iter()
            .map(|r| {
                format!(
                    "{{\"expert\":{},\"stages\":{},\"batches\":{},\"exec_ms\":{},\
                     \"switches\":{},\"switch_ms\":{},\"loads_from_cpu\":{},\
                     \"loads_from_ssd\":{},\"preloads\":{},\"evictions\":{},\
                     \"demotions\":{},\"cache_inserts\":{},\"cache_evicts\":{}}}",
                    r.expert.index(),
                    r.stages,
                    r.batches,
                    json_f64(r.exec_time.as_millis_f64()),
                    r.switches,
                    json_f64(r.switch_time.as_millis_f64()),
                    r.loads_from_cpu,
                    r.loads_from_ssd,
                    r.preloads,
                    r.evictions,
                    r.demotions,
                    r.cache_inserts,
                    r.cache_evicts,
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_sim::time::SimTime;

    fn ms(v: u64) -> SimSpan {
        SimSpan::from_millis_f64(v as f64)
    }

    fn stage_done(
        stage: u8,
        expert: u32,
        queue: u64,
        switch: u64,
        stall: u64,
        exec: u64,
    ) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            node: 0,
            kind: TraceKind::StageDone {
                job: 0,
                stage,
                exec: 0,
                expert: ExpertId(expert),
                queue: ms(queue),
                switch: ms(switch),
                stall: ms(stall),
                exec_span: ms(exec),
            },
        }
    }

    #[test]
    fn attribution_components_sum_to_sojourn() {
        let events = vec![
            stage_done(0, 0, 1, 2, 3, 4),
            stage_done(0, 1, 5, 0, 0, 5),
            stage_done(1, 0, 0, 0, 0, 10),
        ];
        let attr = LatencyAttribution::from_events(&events);
        assert_eq!(attr.count(), 3);
        let rows = attr.rows();
        assert_eq!(rows.len(), 2);
        let s0 = &rows[0];
        assert_eq!(s0.stage, 0);
        assert_eq!(s0.count, 2);
        let soj = s0.sojourn.expect("stage 0 has samples");
        assert!((soj.mean - 10.0).abs() < 1e-9, "mean sojourn {}", soj.mean);
        let overall = attr.overall().expect("non-empty");
        assert_eq!(overall.count, 3);
        let total = overall.sojourn.expect("pooled");
        assert!((total.mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_ignores_other_kinds_and_handles_empty() {
        let other = TraceEvent {
            at: SimTime::ZERO,
            node: 0,
            kind: TraceKind::Arrived { job: 0, stages: 2 },
        };
        let attr = LatencyAttribution::from_events(&[other]);
        assert!(attr.is_empty());
        assert!(attr.overall().is_none());
        assert_eq!(attr.to_json(), "[]");
        assert!(attr.table().is_empty());
    }

    #[test]
    fn attribution_table_has_all_row_only_with_multiple_stages() {
        let one = LatencyAttribution::from_events(&[stage_done(0, 0, 1, 1, 1, 1)]);
        assert_eq!(one.table().len(), 1);
        let two = LatencyAttribution::from_events(&[
            stage_done(0, 0, 1, 1, 1, 1),
            stage_done(1, 0, 1, 1, 1, 1),
        ]);
        assert_eq!(two.table().len(), 3);
    }

    #[test]
    fn heat_counts_execution_and_residency() {
        let e = ExpertId(7);
        let at = SimTime::ZERO;
        let events = vec![
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Preloaded { exec: 0, expert: e },
            },
            stage_done(0, 7, 1, 2, 0, 3),
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Exec {
                    exec: 0,
                    expert: e,
                    items: 4,
                    span: ms(3),
                },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Switch {
                    exec: 0,
                    expert: e,
                    source: MemoryTier::Ssd,
                    span: ms(2),
                },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Loaded {
                    exec: 0,
                    expert: e,
                    source: MemoryTier::Ssd,
                },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Loaded {
                    exec: 1,
                    expert: e,
                    source: MemoryTier::Cpu,
                },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::Evicted {
                    exec: 0,
                    expert: e,
                    demoted: true,
                },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::CacheInserted { expert: e },
            },
            TraceEvent {
                at,
                node: 0,
                kind: TraceKind::CacheEvicted { expert: e },
            },
        ];
        let heat = ExpertHeat::from_events(&events);
        assert_eq!(heat.len(), 1);
        let r = heat.get(e).expect("expert observed");
        assert_eq!(r.stages, 1);
        assert_eq!(r.batches, 1);
        assert_eq!(r.exec_time, ms(3));
        assert_eq!(r.switches, 1);
        assert_eq!(r.switch_time, ms(2));
        assert_eq!(r.loads_from_cpu, 1);
        assert_eq!(r.loads_from_ssd, 1);
        assert_eq!(r.preloads, 1);
        assert_eq!(r.evictions, 1);
        assert_eq!(r.demotions, 1);
        assert_eq!(r.cache_inserts, 1);
        assert_eq!(r.cache_evicts, 1);
    }

    #[test]
    fn heat_rows_sort_hottest_first_with_id_tiebreak() {
        let events = vec![
            stage_done(0, 3, 0, 0, 0, 1),
            stage_done(0, 1, 0, 0, 0, 1),
            stage_done(0, 1, 0, 0, 0, 1),
            stage_done(0, 2, 0, 0, 0, 1),
        ];
        let heat = ExpertHeat::from_events(&events);
        let ids: Vec<u32> = heat.rows().iter().map(|r| r.expert.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(heat.table().len(), 3);
    }

    #[test]
    fn json_outputs_are_deterministic() {
        let events = vec![stage_done(1, 2, 1, 0, 0, 2), stage_done(0, 5, 2, 1, 0, 3)];
        let a1 = LatencyAttribution::from_events(&events);
        let a2 = LatencyAttribution::from_events(&events);
        assert_eq!(a1.to_json(), a2.to_json());
        assert!(a1.to_json().starts_with("[{\"stage\":0"));
        let h1 = ExpertHeat::from_events(&events);
        let h2 = ExpertHeat::from_events(&events);
        assert_eq!(h1.to_json(), h2.to_json());
        assert_eq!(h1.table().render(), h2.table().render());
    }
}
