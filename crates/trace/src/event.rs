//! Typed trace events.
//!
//! One [`TraceEvent`] is one observation: a timestamp on the simulated
//! clock, the node it happened on (`0` for single-node runs), and a
//! [`TraceKind`] payload carrying the causal ids — request, stage,
//! expert, executor, plan version — that let a consumer stitch events
//! back into per-request timelines and per-expert residency histories.
//!
//! Span-shaped kinds carry their duration and are stamped with their
//! *start* time, so an exporter can render them as complete spans
//! without pairing begin/end records.

use coserve_model::expert::ExpertId;
use coserve_sim::memory::MemoryTier;
use coserve_sim::time::{SimSpan, SimTime};

/// One trace observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (span kinds: when the span started).
    pub at: SimTime,
    /// The node it happened on (`0` outside cluster runs).
    pub node: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    // ── request lifecycle ────────────────────────────────────────────
    /// A job entered the system (`at` = effective arrival).
    Arrived {
        /// Engine job id.
        job: u32,
        /// Chain length.
        stages: u8,
    },
    /// The scheduler processed one stage (`at` = processing start).
    Scheduled {
        /// Engine job id.
        job: u32,
        /// Stage index within the chain.
        stage: u8,
        /// Scheduler processing span.
        span: SimSpan,
    },
    /// A stage was assigned to an executor queue.
    Assigned {
        /// Engine job id.
        job: u32,
        /// Stage index within the chain.
        stage: u8,
        /// The stage's expert.
        expert: ExpertId,
        /// Target executor.
        exec: u32,
    },
    /// Admission control shed the job at a full executor queue.
    Dropped {
        /// Engine job id.
        job: u32,
        /// The stage that hit the full queue.
        stage: u8,
        /// Arrival-to-drop sojourn.
        latency: SimSpan,
    },
    /// One stage of a job finished, with its latency attribution
    /// (`at` = finish). The four components sum to the stage sojourn:
    /// queue wait, expert switch, compute-channel stall, execution.
    StageDone {
        /// Engine job id.
        job: u32,
        /// Stage index within the chain.
        stage: u8,
        /// The executor that ran it.
        exec: u32,
        /// The stage's expert.
        expert: ExpertId,
        /// Ready-to-batch-start wait in the executor queue.
        queue: SimSpan,
        /// Expert switch time charged to the batch (zero when the
        /// expert was resident).
        switch: SimSpan,
        /// Wait for the compute channel after the switch completed.
        stall: SimSpan,
        /// Execution time on the compute channel.
        exec_span: SimSpan,
    },
    /// A job completed its last stage (`at` = completion).
    Completed {
        /// Engine job id.
        job: u32,
        /// Arrival-to-completion sojourn.
        latency: SimSpan,
    },
    /// A job failed (its expert could not be served anywhere).
    Failed {
        /// Engine job id.
        job: u32,
        /// Arrival-to-failure sojourn.
        latency: SimSpan,
    },
    /// An expert switch completed on an executor (`at` = switch start).
    Switch {
        /// The switching executor.
        exec: u32,
        /// The expert switched in.
        expert: ExpertId,
        /// Where the weights came from.
        source: MemoryTier,
        /// Start-to-compute-ready duration.
        span: SimSpan,
    },
    /// A batch executed on an executor's compute channel (`at` =
    /// compute start).
    Exec {
        /// The executor.
        exec: u32,
        /// The batch's expert.
        expert: ExpertId,
        /// Requests in the batch.
        items: u32,
        /// Compute span.
        span: SimSpan,
    },

    // ── expert residency ─────────────────────────────────────────────
    /// An expert was preloaded into an executor pool before serving.
    Preloaded {
        /// The executor pool.
        exec: u32,
        /// The preloaded expert.
        expert: ExpertId,
    },
    /// An expert was switched into an executor pool mid-run.
    Loaded {
        /// The executor pool.
        exec: u32,
        /// The loaded expert.
        expert: ExpertId,
        /// Where the weights came from.
        source: MemoryTier,
    },
    /// An expert was evicted from an executor pool.
    Evicted {
        /// The executor pool.
        exec: u32,
        /// The victim.
        expert: ExpertId,
        /// Whether the weights were demoted into the staging cache
        /// (as opposed to simply discarded).
        demoted: bool,
    },
    /// An expert entered the shared staging cache.
    CacheInserted {
        /// The cached expert.
        expert: ExpertId,
    },
    /// The staging cache's LRU sweep evicted an expert.
    CacheEvicted {
        /// The victim.
        expert: ExpertId,
    },

    // ── cluster runtime ──────────────────────────────────────────────
    /// A node died; the work it had not finished was pulled back for
    /// re-route.
    NodeKilled {
        /// Requests pulled back and re-routed.
        rerouted: u32,
    },
    /// A node came back (empty).
    NodeRevived,
    /// One expert copy started migrating to this event's node
    /// (`at` = migration start).
    MigrationStarted {
        /// The migrating expert.
        expert: ExpertId,
        /// The donor node (`None` = local SSD checkpoint reload).
        donor: Option<u32>,
        /// Transfer duration; the copy lands at `at + span`.
        span: SimSpan,
    },
    /// A migrated expert copy became usable on this event's node.
    MigrationLanded {
        /// The landed expert.
        expert: ExpertId,
    },
    /// The placement plan was replaced.
    Replanned {
        /// The successor plan's version.
        version: u64,
        /// Expert copies the migration ships.
        moves: u32,
    },
    /// The front-end rejected a request before any node saw it.
    Shed {
        /// Workload job id (front-end numbering, not an engine id).
        job: u32,
        /// `true` for a pacing shed, `false` for an unhosted chain.
        paced: bool,
    },

    // ── faults & recovery ────────────────────────────────────────────
    /// An injected expert-load fault: the pool miss's tier read failed
    /// `failures` consecutive times.
    LoadFault {
        /// The executor whose switch hit the fault.
        exec: u32,
        /// The expert being loaded.
        expert: ExpertId,
        /// Consecutive failed read attempts.
        failures: u32,
        /// Whether the retry policy recovered the load (`false` = the
        /// budget ran out and the batch failed).
        recovered: bool,
    },
    /// An injected slow expert load: the read succeeded but ran
    /// dilated.
    SlowLoad {
        /// The executor whose switch was dilated.
        exec: u32,
        /// The expert being loaded.
        expert: ExpertId,
        /// Time added over the healthy transfer.
        extra: SimSpan,
    },
    /// A fabric transfer hit a faulted link.
    LinkFault {
        /// Transfer source node.
        from: u32,
        /// Transfer destination node.
        to: u32,
        /// `true` when the pair was partitioned (the transfer was
        /// degraded or abandoned), `false` for a dilated link.
        partitioned: bool,
        /// Time added over the healthy transfer (zero for partitions).
        extra: SimSpan,
    },
    /// One control tick of this event's node served under slow-node
    /// dilation.
    SlowNode {
        /// Executor time the dilation added this tick.
        extra: SimSpan,
    },
    /// A job was re-routed to a replica because its first-choice node
    /// could not reach some chain stage's holders.
    HedgedReroute {
        /// Workload job id (front-end numbering).
        job: u32,
        /// The unreachable first choice.
        from: u32,
        /// The replica actually routed to.
        to: u32,
    },
    /// The server shed a request with a typed busy/retry-after
    /// response instead of queueing it (graceful degradation).
    BusyShed {
        /// The connection whose submit was shed.
        conn: u32,
    },
}

impl TraceKind {
    /// A short stable name for the kind (exporter event names, flat
    /// counter keys).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Arrived { .. } => "arrived",
            TraceKind::Scheduled { .. } => "sched",
            TraceKind::Assigned { .. } => "assigned",
            TraceKind::Dropped { .. } => "dropped",
            TraceKind::StageDone { .. } => "stage-done",
            TraceKind::Completed { .. } => "completed",
            TraceKind::Failed { .. } => "failed",
            TraceKind::Switch { .. } => "switch",
            TraceKind::Exec { .. } => "exec",
            TraceKind::Preloaded { .. } => "preloaded",
            TraceKind::Loaded { .. } => "loaded",
            TraceKind::Evicted { .. } => "evicted",
            TraceKind::CacheInserted { .. } => "cache-insert",
            TraceKind::CacheEvicted { .. } => "cache-evict",
            TraceKind::NodeKilled { .. } => "node-killed",
            TraceKind::NodeRevived => "node-revived",
            TraceKind::MigrationStarted { .. } => "migration-start",
            TraceKind::MigrationLanded { .. } => "migration-land",
            TraceKind::Replanned { .. } => "replanned",
            TraceKind::Shed { .. } => "shed",
            TraceKind::LoadFault { .. } => "load-fault",
            TraceKind::SlowLoad { .. } => "slow-load",
            TraceKind::LinkFault { .. } => "link-fault",
            TraceKind::SlowNode { .. } => "slow-node",
            TraceKind::HedgedReroute { .. } => "hedge-reroute",
            TraceKind::BusyShed { .. } => "busy-shed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            TraceKind::Arrived { job: 0, stages: 1 },
            TraceKind::Scheduled {
                job: 0,
                stage: 0,
                span: SimSpan::ZERO,
            },
            TraceKind::Assigned {
                job: 0,
                stage: 0,
                expert: ExpertId(0),
                exec: 0,
            },
            TraceKind::Dropped {
                job: 0,
                stage: 0,
                latency: SimSpan::ZERO,
            },
            TraceKind::StageDone {
                job: 0,
                stage: 0,
                exec: 0,
                expert: ExpertId(0),
                queue: SimSpan::ZERO,
                switch: SimSpan::ZERO,
                stall: SimSpan::ZERO,
                exec_span: SimSpan::ZERO,
            },
            TraceKind::Completed {
                job: 0,
                latency: SimSpan::ZERO,
            },
            TraceKind::Failed {
                job: 0,
                latency: SimSpan::ZERO,
            },
            TraceKind::Switch {
                exec: 0,
                expert: ExpertId(0),
                source: MemoryTier::Ssd,
                span: SimSpan::ZERO,
            },
            TraceKind::Exec {
                exec: 0,
                expert: ExpertId(0),
                items: 1,
                span: SimSpan::ZERO,
            },
            TraceKind::Preloaded {
                exec: 0,
                expert: ExpertId(0),
            },
            TraceKind::Loaded {
                exec: 0,
                expert: ExpertId(0),
                source: MemoryTier::Cpu,
            },
            TraceKind::Evicted {
                exec: 0,
                expert: ExpertId(0),
                demoted: true,
            },
            TraceKind::CacheInserted {
                expert: ExpertId(0),
            },
            TraceKind::CacheEvicted {
                expert: ExpertId(0),
            },
            TraceKind::NodeKilled { rerouted: 0 },
            TraceKind::NodeRevived,
            TraceKind::MigrationStarted {
                expert: ExpertId(0),
                donor: None,
                span: SimSpan::ZERO,
            },
            TraceKind::MigrationLanded {
                expert: ExpertId(0),
            },
            TraceKind::Replanned {
                version: 1,
                moves: 0,
            },
            TraceKind::Shed {
                job: 0,
                paced: true,
            },
            TraceKind::LoadFault {
                exec: 0,
                expert: ExpertId(0),
                failures: 1,
                recovered: true,
            },
            TraceKind::SlowLoad {
                exec: 0,
                expert: ExpertId(0),
                extra: SimSpan::ZERO,
            },
            TraceKind::LinkFault {
                from: 0,
                to: 1,
                partitioned: false,
                extra: SimSpan::ZERO,
            },
            TraceKind::SlowNode {
                extra: SimSpan::ZERO,
            },
            TraceKind::HedgedReroute {
                job: 0,
                from: 0,
                to: 1,
            },
            TraceKind::BusyShed { conn: 0 },
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(TraceKind::name).collect();
        assert_eq!(names.len(), kinds.len(), "duplicate kind name");
    }
}
