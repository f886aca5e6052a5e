//! Chrome trace-event export.
//!
//! [`chrome_trace_json`] renders a drained event list as a JSON object
//! in the [Chrome trace-event format] understood by Perfetto and
//! `chrome://tracing`:
//!
//! * one **pid** per node,
//! * one **tid** per track: `0` requests, `1` scheduler, `2` staging
//!   cache, `3` cluster runtime, `10 + e` for executor `e`,
//! * complete spans (`ph: "X"`) for scheduler work, expert switches,
//!   batch execution and migrations; thread-scoped instants
//!   (`ph: "i"`) for everything else,
//! * timestamps and durations in sim-time **microseconds**, rendered
//!   from integer nanoseconds as exact `µs.³` decimals — never through
//!   a float — so two identical runs export byte-identical traces.
//!
//! Metadata records (`ph: "M"`) name every process and thread that
//! appears, so tracks come up labelled in the viewer.
//!
//! [Chrome trace-event format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeSet;
use std::fmt::Write as _;

use coserve_model::expert::ExpertId;
use coserve_sim::time::{SimSpan, SimTime};

use crate::event::{TraceEvent, TraceKind};

/// Track (tid) for request lifecycle instants.
pub const TID_REQUESTS: u32 = 0;
/// Track (tid) for scheduler processing spans.
pub const TID_SCHEDULER: u32 = 1;
/// Track (tid) for staging-cache residency instants.
pub const TID_CACHE: u32 = 2;
/// Track (tid) for cluster runtime control events.
pub const TID_RUNTIME: u32 = 3;
/// Executor `e` gets track `TID_EXEC_BASE + e`.
pub const TID_EXEC_BASE: u32 = 10;

/// Renders `events` as a Chrome trace-event JSON object
/// (`{"displayTimeUnit": "ms", "traceEvents": [...]}`).
///
/// Events are emitted in input order after the metadata records; the
/// format does not require timestamp ordering.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");

    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
        out.push_str(&line);
    };

    // Name every process and thread up front so tracks come up
    // labelled even when their first real event is far into the trace.
    let mut pids: BTreeSet<u32> = BTreeSet::new();
    let mut tracks: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in events {
        pids.insert(ev.node);
        tracks.insert((ev.node, tid_for(&ev.kind)));
    }
    for &pid in &pids {
        emit(
            format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"node {pid}\"}}}}"
            ),
            &mut out,
        );
    }
    for &(pid, tid) in &tracks {
        emit(
            format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                track_name(tid)
            ),
            &mut out,
        );
    }

    for ev in events {
        emit(render_event(ev), &mut out);
    }

    out.push_str("\n]}\n");
    out
}

/// The track an event is drawn on.
fn tid_for(kind: &TraceKind) -> u32 {
    match kind {
        TraceKind::Arrived { .. }
        | TraceKind::Assigned { .. }
        | TraceKind::Dropped { .. }
        | TraceKind::StageDone { .. }
        | TraceKind::Completed { .. }
        | TraceKind::Failed { .. }
        | TraceKind::Shed { .. }
        | TraceKind::HedgedReroute { .. }
        | TraceKind::BusyShed { .. } => TID_REQUESTS,
        TraceKind::Scheduled { .. } => TID_SCHEDULER,
        TraceKind::CacheInserted { .. } | TraceKind::CacheEvicted { .. } => TID_CACHE,
        TraceKind::NodeKilled { .. }
        | TraceKind::MigrationStarted { .. }
        | TraceKind::MigrationLanded { .. }
        | TraceKind::Replanned { .. }
        | TraceKind::SlowNode { .. } => TID_RUNTIME,
        TraceKind::Switch { exec, .. }
        | TraceKind::Exec { exec, .. }
        | TraceKind::Preloaded { exec, .. }
        | TraceKind::Loaded { exec, .. }
        | TraceKind::Evicted { exec, .. }
        | TraceKind::LoadFault { exec, .. }
        | TraceKind::SlowLoad { exec, .. } => TID_EXEC_BASE + exec,
    }
}

/// Human-readable name for a track id.
fn track_name(tid: u32) -> String {
    match tid {
        TID_REQUESTS => "requests".to_string(),
        TID_SCHEDULER => "scheduler".to_string(),
        TID_CACHE => "cache".to_string(),
        TID_RUNTIME => "runtime".to_string(),
        exec => format!("exec {}", exec - TID_EXEC_BASE),
    }
}

/// Integer nanoseconds as exact microseconds with three decimals
/// (`1500` → `"1.500"`), avoiding float formatting entirely.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// One trace-event record as a JSON object literal.
fn render_event(ev: &TraceEvent) -> String {
    let mut rec = String::with_capacity(96);
    let tid = tid_for(&ev.kind);
    let _ = write!(
        rec,
        "{{\"name\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {}",
        ev.kind.name(),
        ev.node,
        tid,
        micros(ev.at.nanos())
    );

    // ph + dur.
    match &ev.kind {
        TraceKind::Scheduled { span, .. }
        | TraceKind::Switch { span, .. }
        | TraceKind::Exec { span, .. }
        | TraceKind::MigrationStarted { span, .. } => {
            let _ = write!(rec, ", \"ph\": \"X\", \"dur\": {}", micros(span.nanos()));
        }
        _ => {
            rec.push_str(", \"ph\": \"i\", \"s\": \"t\"");
        }
    }

    rec.push_str(", \"args\": {");
    match &ev.kind {
        TraceKind::Arrived { job, stages } => {
            let _ = write!(rec, "\"job\": {job}, \"stages\": {stages}");
        }
        TraceKind::Scheduled { job, stage, .. } => {
            let _ = write!(rec, "\"job\": {job}, \"stage\": {stage}");
        }
        TraceKind::Assigned {
            job,
            stage,
            expert,
            exec,
        } => {
            let _ = write!(
                rec,
                "\"job\": {job}, \"stage\": {stage}, \"expert\": {}, \"exec\": {exec}",
                expert.index()
            );
        }
        TraceKind::Dropped {
            job,
            stage,
            latency,
        } => {
            let _ = write!(
                rec,
                "\"job\": {job}, \"stage\": {stage}, \"latency_us\": {}",
                micros(latency.nanos())
            );
        }
        TraceKind::StageDone {
            job,
            stage,
            exec,
            expert,
            queue,
            switch,
            stall,
            exec_span,
        } => {
            let _ = write!(
                rec,
                "\"job\": {job}, \"stage\": {stage}, \"exec\": {exec}, \"expert\": {}, \
                 \"queue_us\": {}, \"switch_us\": {}, \"stall_us\": {}, \"exec_us\": {}",
                expert.index(),
                micros(queue.nanos()),
                micros(switch.nanos()),
                micros(stall.nanos()),
                micros(exec_span.nanos())
            );
        }
        TraceKind::Completed { job, latency } | TraceKind::Failed { job, latency } => {
            let _ = write!(
                rec,
                "\"job\": {job}, \"latency_us\": {}",
                micros(latency.nanos())
            );
        }
        TraceKind::Switch { expert, source, .. } => {
            let _ = write!(
                rec,
                "\"expert\": {}, \"source\": \"{source}\"",
                expert.index()
            );
        }
        TraceKind::Exec { expert, items, .. } => {
            let _ = write!(rec, "\"expert\": {}, \"items\": {items}", expert.index());
        }
        TraceKind::Preloaded { expert, .. } => {
            let _ = write!(rec, "\"expert\": {}", expert.index());
        }
        TraceKind::Loaded { expert, source, .. } => {
            let _ = write!(
                rec,
                "\"expert\": {}, \"source\": \"{source}\"",
                expert.index()
            );
        }
        TraceKind::Evicted {
            expert, demoted, ..
        } => {
            let _ = write!(
                rec,
                "\"expert\": {}, \"demoted\": {demoted}",
                expert.index()
            );
        }
        TraceKind::CacheInserted { expert } | TraceKind::CacheEvicted { expert } => {
            let _ = write!(rec, "\"expert\": {}", expert.index());
        }
        TraceKind::NodeKilled { rerouted } => {
            let _ = write!(rec, "\"rerouted\": {rerouted}");
        }
        TraceKind::MigrationStarted { expert, .. } | TraceKind::MigrationLanded { expert } => {
            let _ = write!(rec, "\"expert\": {}", expert.index());
        }
        TraceKind::Replanned { version, moves } => {
            let _ = write!(rec, "\"version\": {version}, \"moves\": {moves}");
        }
        TraceKind::Shed { job } => {
            let _ = write!(rec, "\"job\": {job}");
        }
        TraceKind::LoadFault {
            exec,
            expert,
            failures,
            recovered,
        } => {
            let _ = write!(
                rec,
                "\"exec\": {exec}, \"expert\": {}, \"failures\": {failures}, \
                 \"recovered\": {recovered}",
                expert.index()
            );
        }
        TraceKind::SlowLoad { expert, extra, .. } => {
            let _ = write!(
                rec,
                "\"expert\": {}, \"extra_us\": {}",
                expert.index(),
                micros(extra.nanos())
            );
        }
        TraceKind::SlowNode { extra } => {
            let _ = write!(rec, "\"extra_us\": {}", micros(extra.nanos()));
        }
        TraceKind::HedgedReroute { job, from, to } => {
            let _ = write!(rec, "\"job\": {job}, \"from\": {from}, \"to\": {to}");
        }
        TraceKind::BusyShed { conn } => {
            let _ = write!(rec, "\"conn\": {conn}");
        }
    }
    rec.push_str("}}");
    rec
}

/// Reads the `stage-done` records back out of a document produced by
/// [`chrome_trace_json`] — the consumer side of the admin `/trace`
/// dump, used by `coserve-loadgen --trace-summary` to rebuild a
/// latency-attribution table without a JSON parser dependency.
///
/// This is a scanner for *this exporter's own* one-record-per-line
/// formatting, not a general JSON reader; records of any other kind
/// (and unparseable lines) are skipped.
#[must_use]
pub fn parse_chrome_stage_done(json: &str) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for line in json.lines() {
        if !line.contains("\"name\": \"stage-done\"") {
            continue;
        }
        let parsed = (|| {
            Some(TraceEvent {
                at: SimTime::from_nanos(micros_field(line, "ts")?),
                node: field(line, "pid")?.parse().ok()?,
                kind: TraceKind::StageDone {
                    job: field(line, "job")?.parse().ok()?,
                    stage: field(line, "stage")?.parse().ok()?,
                    exec: field(line, "exec")?.parse().ok()?,
                    expert: ExpertId(field(line, "expert")?.parse().ok()?),
                    queue: SimSpan::from_nanos(micros_field(line, "queue_us")?),
                    switch: SimSpan::from_nanos(micros_field(line, "switch_us")?),
                    stall: SimSpan::from_nanos(micros_field(line, "stall_us")?),
                    exec_span: SimSpan::from_nanos(micros_field(line, "exec_us")?),
                },
            })
        })();
        if let Some(ev) = parsed {
            events.push(ev);
        }
    }
    events
}

/// The raw text of `"key": value` in an exported record line, up to
/// the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let end = rest.find([',', '}'])?;
    rest.get(..end)
}

/// A `µs.³` decimal field (the inverse of [`micros`]) as integer
/// nanoseconds.
fn micros_field(line: &str, key: &str) -> Option<u64> {
    let text = field(line, key)?;
    let (whole, frac) = text.split_once('.')?;
    if frac.len() != 3 {
        return None;
    }
    let whole: u64 = whole.parse().ok()?;
    let frac: u64 = frac.parse().ok()?;
    Some(whole * 1_000 + frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::expert::ExpertId;
    use coserve_sim::memory::MemoryTier;
    use coserve_sim::time::{SimSpan, SimTime};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: SimTime::from_nanos(1_500),
                node: 0,
                kind: TraceKind::Arrived { job: 1, stages: 2 },
            },
            TraceEvent {
                at: SimTime::from_nanos(2_000),
                node: 0,
                kind: TraceKind::Scheduled {
                    job: 1,
                    stage: 0,
                    span: SimSpan::from_nanos(500),
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(3_000),
                node: 0,
                kind: TraceKind::Switch {
                    exec: 2,
                    expert: ExpertId(7),
                    source: MemoryTier::Cpu,
                    span: SimSpan::from_micros(4),
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(9_000),
                node: 1,
                kind: TraceKind::MigrationStarted {
                    expert: ExpertId(3),
                    span: SimSpan::from_micros(100),
                },
            },
        ]
    }

    #[test]
    fn stage_done_round_trips_through_the_exporter() {
        let events = vec![
            TraceEvent {
                at: SimTime::from_nanos(12_345),
                node: 3,
                kind: TraceKind::StageDone {
                    job: 9,
                    stage: 1,
                    exec: 2,
                    expert: ExpertId(7),
                    queue: SimSpan::from_nanos(1_001),
                    switch: SimSpan::from_nanos(0),
                    stall: SimSpan::from_nanos(42),
                    exec_span: SimSpan::from_micros(5),
                },
            },
            // Noise the scanner must skip.
            TraceEvent {
                at: SimTime::from_nanos(1),
                node: 0,
                kind: TraceKind::Completed {
                    job: 9,
                    latency: SimSpan::from_micros(20),
                },
            },
        ];
        let parsed = parse_chrome_stage_done(&chrome_trace_json(&events));
        assert_eq!(parsed, vec![events[0].clone()]);
        assert!(parse_chrome_stage_done(&chrome_trace_json(&[])).is_empty());
    }

    #[test]
    fn micros_formats_exactly() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(1_000_000_007), "1000000.007");
    }

    #[test]
    fn export_is_balanced_json() {
        let json = chrome_trace_json(&sample_events());
        let (mut depth, mut max_depth) = (0i64, 0i64);
        let mut in_str = false;
        let mut prev = ' ';
        for c in json.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => {
                        depth += 1;
                        max_depth = max_depth.max(depth);
                    }
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
            }
            prev = c;
        }
        assert_eq!(depth, 0, "unbalanced braces/brackets");
        assert!(max_depth >= 3, "expected nested records");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn export_names_processes_and_tracks() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.contains("\"name\": \"node 0\""));
        assert!(json.contains("\"name\": \"node 1\""));
        assert!(json.contains("\"name\": \"requests\""));
        assert!(json.contains("\"name\": \"scheduler\""));
        assert!(json.contains("\"name\": \"exec 2\""));
        assert!(json.contains("\"name\": \"runtime\""));
    }

    #[test]
    fn spans_get_durations_and_instants_get_scope() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.contains("\"name\": \"switch\", \"pid\": 0, \"tid\": 12, \"ts\": 3.000, \"ph\": \"X\", \"dur\": 4.000"));
        assert!(json.contains("\"name\": \"arrived\", \"pid\": 0, \"tid\": 0, \"ts\": 1.500, \"ph\": \"i\", \"s\": \"t\""));
        assert!(json.contains(
            "\"name\": \"migration-start\", \"pid\": 1, \"tid\": 3, \"ts\": 9.000, \"ph\": \"X\", \"dur\": 100.000, \"args\": {\"expert\": 3}}"
        ));
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn empty_export_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
