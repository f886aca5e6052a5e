//! The serving engine.
//!
//! A discrete-event simulation of CoServe's online phase (§4.1): an
//! inference-request scheduler assigns and arranges incoming requests
//! onto executor queues; executors peel same-expert batches, switch
//! experts in and out of their model pools, and execute on shared
//! hardware channels (GPU compute, host↔device DMA, SSD reads, CPU
//! compute). Every baseline in the paper's evaluation runs on this same
//! engine with different [`SystemConfig`] policies, so comparisons
//! isolate exactly the policy under study.
//!
//! Hardware contention is modeled through FIFO channel reservations:
//! two GPU executors' batches serialize on the GPU compute channel,
//! while one executor's expert load (SSD/DMA channels) overlaps another
//! executor's compute — the pipelining that makes multiple executors
//! worthwhile.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use coserve_faults::{FaultPlan, LoadOutcome, RetryPolicy};
use coserve_metrics::faults::FaultLedger;
use coserve_metrics::report::{ChannelReport, ExecutorReport, RunReport, RunSnapshot, SwitchEvent};
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::device::{ArchId, DeviceProfile, ProcessorKind};
use coserve_sim::events::Calendar;
use coserve_sim::memory::{Bytes, MemoryTier};
use coserve_sim::resource::{FifoResource, PooledResource};
use coserve_sim::time::{SimSpan, SimTime};
use coserve_sim::transfer::{TransferRoute, TransferStages};
use coserve_trace::{NoopTracer, TraceEvent, TraceKind, Tracer};
use coserve_workload::stream::RequestStream;

use crate::config::{ArrangePolicy, AssignPolicy, SystemConfig};
use crate::evict::EvictionPolicy;
use crate::perf::{PerfEntry, PerfMatrix};
use crate::pool::{ModelPool, Resident};
use crate::queue::{ExecutorQueue, PendingRequest, RunDelta};

/// Error detected when constructing an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The device or performance matrix lacks a cost model for an
    /// architecture/processor pair the configuration would use.
    MissingKernel(ArchId, ProcessorKind),
    /// The per-expert tables do not cover the model.
    PerfModelMismatch {
        /// Experts in the model.
        model_experts: usize,
        /// Experts covered by the matrix.
        perf_experts: usize,
    },
    /// The configured preload order names an expert outside the model.
    UnknownExpert(ExpertId),
    /// The configuration lists no executors, so no request could be
    /// served.
    NoExecutors,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingKernel(a, p) => {
                write!(f, "no kernel/perf entry for {a} on {p}")
            }
            EngineError::PerfModelMismatch {
                model_experts,
                perf_experts,
            } => write!(
                f,
                "perf matrix covers {perf_experts} experts but model has {model_experts}"
            ),
            EngineError::UnknownExpert(e) => {
                write!(f, "preload order names {e}, which the model lacks")
            }
            EngineError::NoExecutors => write!(f, "configuration has no executors"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-executor memory assignment produced by the layout planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorMemory {
    /// Capacity of the executor's model pool.
    pub pool_capacity: Bytes,
    /// Bytes reserved for inference intermediate results.
    pub workspace: Bytes,
}

/// The device-memory layout for a configuration: per-executor pools and
/// workspaces plus the NUMA staging-cache size (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    /// One entry per executor, in configuration order.
    pub executors: Vec<ExecutorMemory>,
    /// Staging-cache capacity (zero on UMA devices).
    pub cache: Bytes,
}

/// Share of each GPU executor's memory given to its expert pool when
/// the configuration sets no resident-expert target (§5.2's Casual).
const GPU_POOL_FRACTION: f64 = 0.75;

/// Share of usable CPU memory reserved as the staging cache on NUMA
/// devices that also run CPU executors.
const CPU_CACHE_FRACTION: f64 = 0.35;

/// Scheduler worker threads. Scheduling runs on the host CPU in
/// parallel with inference (§5.3); with the paper's 8.3 ms per-request
/// cost and 4 ms arrival interval, two workers keep up with arrivals.
const SCHEDULER_SLOTS: usize = 2;

/// Plans the memory layout for `config` on `device` (§4.4).
///
/// GPU executors split usable GPU memory evenly. On NUMA devices the
/// staging cache takes 35 % of usable CPU memory (all of it when there
/// are no CPU executors), and CPU executors split the rest; on UMA
/// devices all executors split the unified pool. Within a GPU share the
/// expert pool takes the window-search target
/// ([`SystemConfig::gpu_resident_experts`]) or, without one, 75 % of
/// the share. A CPU executor follows §4.4's rule for limited-computation
/// processors: its workspace holds exactly what the maximum batch needs
/// and its pool takes the rest. Every pool leaves workspace for at least
/// a batch-of-one inference of the largest architecture.
#[must_use]
pub fn plan_memory(
    device: &DeviceProfile,
    model: &CoeModel,
    perf: &PerfMatrix,
    config: &SystemConfig,
) -> MemoryLayout {
    let gpus = config.gpu_executor_count() as u64;
    let cpus = config.cpu_executor_count() as u64;

    let min_workspace = |proc: ProcessorKind| -> Bytes {
        perf.entries()
            .filter(|&(_, p, _)| p == proc)
            .map(|(_, _, e)| e.workspace + e.per_item)
            .max()
            .unwrap_or(Bytes::ZERO)
    };

    // Every executor process pays a fixed framework overhead out of its
    // share — the cost that makes "too many executors" lose (Figure 17).
    let overhead = device.executor_overhead();
    let (gpu_share, cpu_share, cache) = if device.has_staging_cache() {
        let gpu_share = device
            .gpu_usable()
            .get()
            .checked_div(gpus)
            .map_or(Bytes::ZERO, |b| Bytes::new(b).saturating_sub(overhead));
        let cpu_usable = device.cpu_usable();
        let cache = if cpus == 0 {
            cpu_usable
        } else {
            Bytes::new((cpu_usable.get() as f64 * CPU_CACHE_FRACTION) as u64)
        };
        let cpu_share = cpu_usable
            .saturating_sub(cache)
            .get()
            .checked_div(cpus)
            .map_or(Bytes::ZERO, |b| Bytes::new(b).saturating_sub(overhead));
        (gpu_share, cpu_share, cache)
    } else {
        // UMA: one unified pool for everyone, no staging tier.
        let total = config.executors.len() as u64;
        let share = Bytes::new(device.gpu_usable().get() / total.max(1)).saturating_sub(overhead);
        (share, share, Bytes::ZERO)
    };

    // Window-search target: per-GPU-executor pool capacity sized to hold
    // its round-robin share of the top-n experts (2 % slack for size
    // variation between architectures).
    let gpu_pool_target = config.gpu_resident_experts.map(|n| {
        let total: Bytes = perf
            .experts_by_usage()
            .iter()
            .take(n)
            .map(|&e| model.weight_bytes(e))
            .sum();
        let per_exec = total.get() / gpus.max(1);
        Bytes::new((per_exec as f64 * 1.02) as u64)
    });

    // §4.4's rule for limited-computation processors: reserve exactly
    // what the maximum batch size needs for intermediate results, and
    // give everything else to expert loading.
    let cpu_batch_reserve = || -> Bytes {
        perf.entries()
            .filter(|&(_, p, _)| p == ProcessorKind::Cpu)
            .map(|(_, _, e)| e.workspace + e.per_item * u64::from(e.max_batch))
            .max()
            .unwrap_or(Bytes::ZERO)
    };

    let executors = config
        .executors
        .iter()
        .map(|&processor| {
            let (share, target) = match processor {
                ProcessorKind::Gpu => (gpu_share, gpu_pool_target),
                ProcessorKind::Cpu => (cpu_share, None),
            };
            let floor = min_workspace(processor);
            let raw_pool = target.unwrap_or_else(|| match processor {
                ProcessorKind::Gpu => Bytes::new((share.get() as f64 * GPU_POOL_FRACTION) as u64),
                ProcessorKind::Cpu => share.saturating_sub(cpu_batch_reserve()),
            });
            let pool_capacity = raw_pool.min(share.saturating_sub(floor));
            ExecutorMemory {
                pool_capacity,
                workspace: share.saturating_sub(pool_capacity),
            }
        })
        .collect();

    MemoryLayout { executors, cache }
}

/// The serving engine for one (device, model, measurements, config)
/// combination.
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    device: &'a DeviceProfile,
    model: &'a CoeModel,
    perf: &'a PerfMatrix,
    config: &'a SystemConfig,
}

impl<'a> Engine<'a> {
    /// Validates that every architecture in the model has cost models on
    /// every processor the configuration uses, and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on an empty executor list, missing
    /// kernels/entries, a model/matrix size mismatch or a preload order
    /// naming an expert outside the model.
    pub fn new(
        device: &'a DeviceProfile,
        model: &'a CoeModel,
        perf: &'a PerfMatrix,
        config: &'a SystemConfig,
    ) -> Result<Self, EngineError> {
        if config.executors.is_empty() {
            return Err(EngineError::NoExecutors);
        }
        if perf.num_experts() != model.num_experts() {
            return Err(EngineError::PerfModelMismatch {
                model_experts: model.num_experts(),
                perf_experts: perf.num_experts(),
            });
        }
        let procs: BTreeSet<ProcessorKind> = config.executors.iter().copied().collect();
        for arch in model.archs() {
            for &proc in &procs {
                if device.kernel(arch.id(), proc).is_none() || perf.entry(arch.id(), proc).is_none()
                {
                    return Err(EngineError::MissingKernel(arch.id(), proc));
                }
            }
        }
        if let Some(order) = &config.preload_order {
            if let Some(&bad) = order.iter().find(|e| e.index() >= model.num_experts()) {
                return Err(EngineError::UnknownExpert(bad));
            }
        }
        Ok(Engine {
            device,
            model,
            perf,
            config,
        })
    }

    /// The planned memory layout for this engine.
    #[must_use]
    pub fn memory_layout(&self) -> MemoryLayout {
        plan_memory(self.device, self.model, self.perf, self.config)
    }

    /// Runs the stream to completion and reports.
    ///
    /// Expressed on the re-entrant [`EngineSession`]: every arrival is
    /// submitted up front (matching the event sequence numbering of the
    /// historical one-shot run loop bit for bit), then the session is
    /// pumped dry and consumed into a report.
    #[must_use]
    pub fn run(&self, stream: &RequestStream) -> RunReport {
        let mut session = self.session(stream.name());
        for job in stream.jobs() {
            session
                .submit(job.arrival, &job.stages)
                .expect("stream jobs reference experts of the engine's model");
        }
        session.pump();
        session.into_report()
    }

    /// Opens a re-entrant serving session against this engine's
    /// configuration. `label` names the session in reports/snapshots
    /// (the batch facade passes the stream name).
    #[must_use]
    pub fn session(&self, label: impl Into<String>) -> EngineSession<'a> {
        EngineSession::new(self, label)
    }
}

/// §4.1: "Experts are distributed into each executor in a round-robin
/// manner, prioritized by descending usage probabilities, until the
/// memory is fully utilized." A cluster placement plan may override the
/// priority order so the node preloads its placed experts first. The
/// order is either that override or the perf matrix's memoized
/// descending-usage slice — no clone on the construction path. Each
/// pool keeps the configured policy's victim order from its first
/// insert on.
fn preload<'a>(engine: &Engine<'a>, layout: &MemoryLayout) -> Vec<ModelPool<'a>> {
    let mut pools: Vec<ModelPool<'a>> = layout
        .executors
        .iter()
        .map(|mem| {
            let policy = engine.config.eviction;
            ModelPool::new(mem.pool_capacity, policy, engine.model, engine.perf)
        })
        .collect();
    let order: &[ExpertId] = match &engine.config.preload_order {
        Some(order) => order,
        None => engine.perf.experts_by_usage(),
    };
    preload_round_robin(&mut pools, order, |e| engine.model.weight_bytes(e));
    pools
}

/// Round-robin expert preloading across executor pools (§4.1): experts
/// arrive in descending-usage order; each goes to the pool at the
/// cursor (probing forward past pools it does not fit), and the cursor
/// advances past the pool that accepted it — so a full or too-small
/// pool never skews placement onto a single neighbour.
fn preload_round_robin(
    pools: &mut [ModelPool<'_>],
    order: &[ExpertId],
    weight_bytes: impl Fn(ExpertId) -> Bytes,
) {
    let n = pools.len();
    if n == 0 {
        return;
    }
    let mut cursor = 0usize;
    for &expert in order {
        let bytes = weight_bytes(expert);
        for probe in 0..n {
            let idx = (cursor + probe) % n;
            if pools[idx].fits(bytes) {
                pools[idx]
                    .insert(expert, bytes, SimTime::ZERO)
                    .expect("fits was checked");
                cursor = (idx + 1) % n;
                break;
            }
        }
    }
}

/// The route an expert load onto `processor` takes, given whether the
/// staging cache holds the expert; `None` for a staging-cache hit on a
/// CPU executor, which is already in host RAM.
fn load_route(processor: ProcessorKind, cached: bool) -> Option<TransferRoute> {
    match (processor, cached) {
        (ProcessorKind::Gpu, true) => Some(TransferRoute::CpuToGpu),
        (ProcessorKind::Gpu, false) => Some(TransferRoute::SsdToGpu),
        (ProcessorKind::Cpu, true) => None,
        (ProcessorKind::Cpu, false) => Some(TransferRoute::SsdToCpu),
    }
}

/// Events driving the serving loop. The calendar carries each one
/// packed into a single `u64` word ([`Ev::pack`]), so a pop moves one
/// register instead of a tagged enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A job stage became ready (arrival or previous stage finished).
    Arrive { job: u32, stage: u8 },
    /// The scheduler finished deciding where the stage goes.
    Sched { job: u32, stage: u8 },
    /// An executor's in-flight batch is ready to start its next leg
    /// (channel reservation) or, when no legs remain, to complete.
    Leg { exec: u32 },
}

impl Ev {
    /// Width of the kind tag in the word's low bits.
    const KIND_BITS: u32 = 2;
    const ARRIVE: u64 = 0;
    const SCHED: u64 = 1;
    const LEG: u64 = 2;

    /// The event as one word: the kind in the low two bits, then the
    /// stage (8 bits) and the job (32 bits), or the executor index.
    fn pack(self) -> u64 {
        let job_stage =
            |job: u32, stage: u8| (u64::from(job) << 8 | u64::from(stage)) << Self::KIND_BITS;
        match self {
            Ev::Arrive { job, stage } => job_stage(job, stage) | Self::ARRIVE,
            Ev::Sched { job, stage } => job_stage(job, stage) | Self::SCHED,
            Ev::Leg { exec } => u64::from(exec) << Self::KIND_BITS | Self::LEG,
        }
    }

    /// Decodes a word [`Ev::pack`] produced.
    fn unpack(word: u64) -> Ev {
        let body = word >> Self::KIND_BITS;
        let (job, stage) = ((body >> 8) as u32, body as u8);
        match word & ((1 << Self::KIND_BITS) - 1) {
            Self::ARRIVE => Ev::Arrive { job, stage },
            Self::SCHED => Ev::Sched { job, stage },
            _ => Ev::Leg { exec: body as u32 },
        }
    }
}

/// Calendar lanes, one per monotone event source (see
/// [`coserve_sim::events::Calendar`]): events pushed "at now" trail the
/// non-decreasing clock; submissions usually arrive in time order; the
/// scheduler's fixed-cost reservations end in order; each FIFO channel's
/// reservations end in order. Sources without the guarantee (the pooled
/// host-work channel, out-of-order submits) fall back to the calendar's
/// heap automatically — lanes are a fast path, never a correctness
/// assumption.
mod lane {
    /// Events scheduled at the current simulation time.
    pub const NOW: usize = 0;
    /// Job submissions (arrivals).
    pub const ARRIVE: usize = 1;
    /// Scheduler-decision completions.
    pub const SCHED: usize = 2;
    /// SSD-read channel reservation ends.
    pub const SSD: usize = 3;
    /// DMA channel reservation ends.
    pub const DMA: usize = 4;
    /// Host-work pool reservation ends (often non-monotone).
    pub const HOST: usize = 5;
    /// GPU compute channel reservation ends.
    pub const GPU: usize = 6;
    /// CPU compute channel reservation ends.
    pub const CPU: usize = 7;
    /// Total lane count.
    pub const COUNT: usize = 8;
}

/// Dense per-(executor, architecture) cost constants, built at session
/// construction so the hot path never walks the perf matrix's or the
/// device's maps, and the prices derived from them, each remembered on
/// first use (a session never prices what it does not run).
#[derive(Debug, Clone)]
struct PerfCacheEntry {
    k_ms: f64,
    b_ms: f64,
    /// The workspace-capped executable batch size, constant per session
    /// (workspace is fixed at construction). The floor of 1 lives in
    /// [`PerfEntry::executable_batch`]; it is why a lone request on an
    /// idle executor always makes a batch of its own, which the direct
    /// start in [`EngineSession::on_sched`] relies on.
    batch_cap: u32,
    /// The expert's checkpoint size (per arch, shared by its experts).
    weights: Bytes,
    /// Ground-truth kernel latency model for this (arch, processor)
    /// pair — saves the device's kernel-map lookup per started batch.
    kernel: coserve_sim::compute::LatencyModel,
    /// [`PerfCacheEntry::price_run`] of every run length priced so
    /// far: every queue insert and batch pop prices two runs.
    run_spans: SpanMemo,
    /// The kernel latency of every batch size started so far.
    kernel_spans: SpanMemo,
    /// The stages of loading the checkpoint from SSD (`load_miss`) or
    /// from the staging cache (`load_hit`): [`load_route`] priced by
    /// [`DeviceProfile::transfer_stages`]. The outer `None` means not
    /// priced yet; the inner one is a load without a transfer.
    load_miss: Option<Option<TransferStages>>,
    load_hit: Option<Option<TransferStages>>,
}

impl PerfCacheEntry {
    /// The predicted execution span of one same-expert run of `count`
    /// requests (§4.2's linear estimate, batched by the executable
    /// batch size), priced afresh. The unit the incremental
    /// `work_exec` aggregate is built from.
    fn price_run(&self, count: u32) -> SimSpan {
        if count == 0 {
            return SimSpan::ZERO;
        }
        let batches = count.div_ceil(self.batch_cap);
        SimSpan::from_millis_f64(self.k_ms * f64::from(count) + self.b_ms * f64::from(batches))
    }

    /// [`PerfCacheEntry::price_run`], remembered.
    fn run_span(&mut self, count: u32) -> SimSpan {
        if let Some(span) = self.run_spans.get(count) {
            return span;
        }
        let span = self.price_run(count);
        self.run_spans.put(count, span);
        span
    }

    /// The ground-truth latency of a batch of `items`, remembered.
    fn kernel_span(&mut self, items: u32) -> SimSpan {
        if let Some(span) = self.kernel_spans.get(items) {
            return span;
        }
        let span = self.kernel.latency(items);
        self.kernel_spans.put(items, span);
        span
    }
}

/// Prices remembered by count, from 1 up, filled on first use. The
/// memo grows to the largest count priced, so a long run is priced once
/// per session, not on every use.
#[derive(Debug, Clone, Default)]
struct SpanMemo(Vec<SimSpan>);

impl SpanMemo {
    /// An unfilled slot. A price that really is the maximum span is
    /// never remembered, only priced again on each use.
    const UNPRICED: SimSpan = SimSpan::from_nanos(u64::MAX);

    /// The remembered price of `count`, if any.
    fn get(&self, count: u32) -> Option<SimSpan> {
        let slot = (count as usize).checked_sub(1)?;
        self.0
            .get(slot)
            .copied()
            .filter(|&span| span != Self::UNPRICED)
    }

    /// Remembers `span` as the price of `count` (a count of 0 has no
    /// slot), growing the memo to cover it.
    fn put(&mut self, count: u32, span: SimSpan) {
        let Some(slot) = (count as usize).checked_sub(1) else {
            return;
        };
        if self.0.len() <= slot {
            self.0.resize(slot + 1, Self::UNPRICED);
        }
        if let Some(memo) = self.0.get_mut(slot) {
            *memo = span;
        }
    }
}

/// One executor's request-assigning constants for one architecture
/// (§4.2), in a table laid out `[arch slot × executors + executor]`, so
/// pricing a request on every executor reads one contiguous block.
/// `span_k`/`span_kb` are `SimSpan::from_millis_f64(k)` and
/// `from_millis_f64(k + b)`, the delta of joining a batch with room and
/// of opening a new one; `switch_cold` and `switch_cached` are the
/// predicted switch-in span of a non-resident expert that the staging
/// cache misses or holds.
#[derive(Debug, Clone, Copy)]
struct AssignRow {
    span_k: SimSpan,
    span_kb: SimSpan,
    /// The executable batch size, as [`PerfCacheEntry::batch_cap`].
    batch_cap: u32,
    switch_cold: SimSpan,
    switch_cached: SimSpan,
}

impl AssignRow {
    fn new(entry: &PerfEntry, processor: ProcessorKind, workspace: Bytes) -> Self {
        AssignRow {
            span_k: SimSpan::from_millis_f64(entry.k_ms),
            span_kb: SimSpan::from_millis_f64(entry.k_ms + entry.b_ms),
            batch_cap: entry.executable_batch(workspace),
            switch_cold: entry.load_from_ssd,
            switch_cached: match processor {
                ProcessorKind::Gpu => entry.load_from_cpu,
                // A staging-cache hit for a CPU executor is a same-RAM
                // move.
                ProcessorKind::Cpu => SimSpan::ZERO,
            },
        }
    }

    /// The switch-in span of a non-resident expert, given whether the
    /// staging cache holds it.
    fn switch(&self, cached: bool) -> SimSpan {
        if cached {
            self.switch_cached
        } else {
            self.switch_cold
        }
    }

    /// Predicted additional latency of appending a request for `expert`
    /// to `exec`'s queue (§4.2): `K` when it joins an existing batch
    /// with room, `K + B` when it opens a new batch, plus the switch
    /// latency when the expert is neither resident nor already queued.
    /// Membership and last-run length come from one queue-index probe.
    fn delta(&self, exec: &ExecState<'_>, expert: ExpertId, cached: bool) -> SimSpan {
        match exec.queue.queued_last_run_len(expert) {
            Some(last_run_len) if last_run_len % self.batch_cap != 0 => self.span_k,
            Some(_) => self.span_kb,
            None if exec.pool.contains(expert) => self.span_kb,
            None => self.span_kb + self.switch(cached),
        }
    }
}

/// Which serially-reusable resource a leg occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegChannel {
    /// The shared SSD read path.
    Ssd,
    /// The shared host↔device DMA engine.
    Dma,
    /// Host-CPU framework work (deserialize/reorganize): runs per
    /// executor but at most `host_work_slots` concurrently device-wide.
    Local,
    /// The processor's compute channel.
    Compute,
}

#[derive(Debug, Clone, Copy)]
struct Leg {
    channel: LegChannel,
    span: SimSpan,
}

#[derive(Debug, Clone, Copy)]
struct PendingSwitch {
    expert: ExpertId,
    source: MemoryTier,
    started: SimTime,
}

#[derive(Debug)]
struct InFlight {
    batch: Vec<PendingRequest>,
    legs: std::collections::VecDeque<Leg>,
    switch: Option<PendingSwitch>,
    /// Latency-attribution milestones: when the batch was popped off
    /// the queue, when its expert switch finished (== `started` when
    /// the expert was resident), and when compute actually began.
    started: SimTime,
    switch_done: SimTime,
    exec_start: SimTime,
}

/// Where an expert's residency changes: an executor's pool or the
/// shared staging cache.
#[derive(Debug, Clone, Copy)]
enum Site {
    Pool(usize),
    Cache,
}

/// How an expert's residency changes.
#[derive(Debug, Clone, Copy)]
enum Residency {
    /// The expert is loaded, with its checkpoint size.
    Enter(Bytes),
    /// The expert is evicted.
    Leave,
    /// A batch, or a staging-cache hit, uses the resident expert.
    Use,
}

#[derive(Debug)]
struct ExecState<'a> {
    processor: ProcessorKind,
    pool: ModelPool<'a>,
    workspace: Bytes,
    queue: ExecutorQueue,
    busy_until: SimTime,
    in_flight: Option<InFlight>,
    batches: u64,
    items: u64,
    exec_time: SimSpan,
    switch_time: SimSpan,
    switches: u64,
    finished_at: SimTime,
    /// Cached Σ over queued runs of the predicted execution span —
    /// maintained incrementally from [`RunDelta`]s so the assigner
    /// never rescans the queue. Exact: spans are integer nanoseconds,
    /// so incremental add/subtract reproduces a fresh sum bit for bit.
    work_exec: SimSpan,
    /// Cached predicted switch span per distinct queued expert, sorted
    /// by expert id (a reusable sorted vec, not a map, so steady state
    /// allocates nothing). An entry is added when its expert enters the
    /// queue and dropped when it leaves; when the expert enters or
    /// leaves this pool or the staging cache, only that entry is
    /// re-priced ([`EngineSession::reprice_switch`]).
    switch_spans: Vec<(ExpertId, SimSpan)>,
    /// Σ of `switch_spans` values, exact like `work_exec`.
    switch_total: SimSpan,
}

/// Per-job terminal flags packed into one byte — the jobs table is a
/// dense flat column (struct-of-arrays), not a vec of bool triples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct JobState(u8);

impl JobState {
    const FAILED: u8 = 1;
    const DONE: u8 = 1 << 1;
    const DROPPED: u8 = 1 << 2;
    /// Not terminal: the first stage passed admission control.
    const ADMITTED: u8 = 1 << 3;

    fn failed(self) -> bool {
        self.0 & Self::FAILED != 0
    }

    fn done(self) -> bool {
        self.0 & Self::DONE != 0
    }

    fn admitted(self) -> bool {
        self.0 & Self::ADMITTED != 0
    }

    /// No terminal flag set: the job is still in flight.
    fn is_open(self) -> bool {
        self.0 & (Self::FAILED | Self::DONE | Self::DROPPED) == 0
    }

    fn set_admitted(&mut self) {
        self.0 |= Self::ADMITTED;
    }

    fn set_failed(&mut self) {
        self.0 |= Self::FAILED;
    }

    fn set_done(&mut self) {
        self.0 |= Self::DONE;
    }

    fn set_dropped(&mut self) {
        self.0 |= Self::DROPPED;
    }
}

/// Error rejecting a [`EngineSession::submit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// A job must have at least one stage.
    EmptyStages,
    /// Jobs are limited to 255 stages (stage indices are `u8`).
    TooManyStages(usize),
    /// A stage names an expert outside the session's model.
    UnknownExpert(ExpertId),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::EmptyStages => write!(f, "job has no stages"),
            SubmitError::TooManyStages(n) => {
                write!(f, "job has {n} stages; at most 255 are supported")
            }
            SubmitError::UnknownExpert(e) => {
                write!(f, "stage names {e}, which the model lacks")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a submitted job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Every stage executed.
    Completed,
    /// A stage's expert could not be served on any pool it was sent to.
    Failed,
    /// Admission control shed the job from a full queue.
    Dropped,
}

/// The terminal record of one submitted job, delivered through
/// [`EngineSession::drain_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id returned by [`EngineSession::submit`].
    pub job: u32,
    /// How the job terminated.
    pub status: CompletionStatus,
    /// Simulation time of the terminal event.
    pub finished_at: SimTime,
    /// Sojourn from (effective) arrival to the terminal event.
    pub latency: SimSpan,
}

/// Submitted-job metadata, stored flat: stage experts for all jobs live
/// in one arena (`stage_arena`) and each job records its slice.
#[derive(Debug, Clone, Copy)]
struct SubmittedJob {
    arrival: SimTime,
    first_stage: u32,
    num_stages: u8,
}

/// A re-entrant serving session: the engine's interior state behind
/// explicit submit/step/drain methods instead of a consumed one-shot
/// run.
///
/// A session accepts individual jobs ([`EngineSession::submit`]),
/// advances the discrete-event loop under caller control
/// ([`EngineSession::step`], [`EngineSession::pump_until`],
/// [`EngineSession::pump`]), surfaces terminal job records as they
/// happen ([`EngineSession::drain_completions`]) and live counters at
/// any point ([`EngineSession::snapshot`]), and finally consumes itself
/// into the classic [`RunReport`] ([`EngineSession::into_report`]).
///
/// Determinism: results depend only on the sequence of `submit` calls
/// (order included) and are independent of how the event loop is
/// chopped into `step`/`pump_until`/`pump` calls, because pending
/// events always pop in `(time, submission seq)` order. Submitting all
/// jobs of a stream in order and then pumping reproduces the historical
/// batch run bit for bit — [`Engine::run`] is implemented exactly that
/// way. Arrivals earlier than the session's current simulation time are
/// floored to "now".
pub struct EngineSession<'a> {
    engine: Engine<'a>,
    label: String,
    submitted_jobs: Vec<SubmittedJob>,
    stage_arena: Vec<ExpertId>,
    completions: Vec<Completion>,
    /// Pending events, each an [`Ev::pack`] word.
    events: Calendar<u64>,
    /// Dense arch slot per expert (`ExpertId::index` → position in the
    /// model's sorted arch-id list).
    arch_slot: Vec<u32>,
    /// Per-(executor, arch-slot) cost constants, row-major by
    /// executor: `perf_cache[exec * num_arch_slots + slot]`.
    perf_cache: Vec<PerfCacheEntry>,
    num_arch_slots: usize,
    /// Per-(arch-slot, executor) assignment constants, row-major by
    /// arch slot: `assign_rows[slot * executors + exec]`.
    assign_rows: Vec<AssignRow>,
    /// Per arch slot, the GPU→CPU demotion span of its checkpoint,
    /// `None` until first priced ([`EngineSession::demotion_span`]).
    demotions: Vec<Option<SimSpan>>,
    scheduler: PooledResource,
    gpu_compute: FifoResource,
    cpu_compute: FifoResource,
    dma: FifoResource,
    ssd: FifoResource,
    host_work: PooledResource,
    execs: Vec<ExecState<'a>>,
    /// The NUMA staging cache: an LRU pool.
    cache: Option<ModelPool<'a>>,
    jobs: Vec<JobState>,
    rr_cursor: usize,
    completed: usize,
    failed: usize,
    admitted: usize,
    dropped: usize,
    stages_executed: usize,
    last_done: SimTime,
    switch_events: Vec<SwitchEvent>,
    job_latencies: Vec<SimSpan>,
    /// Per-stage latency ledgers, indexed by stage number (dense; a
    /// stage's vec is empty until its first completion). Converted to
    /// the report's sparse map in [`EngineSession::into_report`].
    stage_latencies: Vec<Vec<SimSpan>>,
    sched_latencies: Vec<SimSpan>,
    /// Assignment scratch: per-executor predicted totals, reused across
    /// requests.
    totals_scratch: Vec<SimSpan>,
    /// Recycled batch buffers: popped groups move into `InFlight` and
    /// come back here when the batch finishes, so steady state pops
    /// allocate nothing.
    batch_pool: Vec<Vec<PendingRequest>>,
    /// Recycled leg deques (free-list twin of `batch_pool`): a batch's
    /// drained leg buffer returns here when it completes.
    legs_pool: Vec<std::collections::VecDeque<Leg>>,
    /// Reusable victim lists for executor pools and for the staging
    /// cache, which an executor's eviction fills while the pool's
    /// victims are still being demoted.
    victims: Vec<ExpertId>,
    cache_victims: Vec<ExpertId>,
    /// Structured-event sink; [`NoopTracer`] unless a collector was
    /// installed with [`EngineSession::set_tracer`]. Every emission
    /// site is guarded by the cached `tracing` flag, so the disabled
    /// path never constructs an event and stays bit-identical.
    tracer: Box<dyn Tracer>,
    /// Cached [`Tracer::enabled`] of the installed tracer (the trait
    /// requires it to be stable per instance), so hot-path emission
    /// guards are a field read, not a virtual call.
    tracing: bool,
    /// Node id stamped on emitted events (`0` outside cluster runs).
    trace_node: u32,
    /// Deterministic fault schedule for the expert-load path; `None`
    /// unless installed with [`EngineSession::set_faults`] — the
    /// default path never queries a plan and stays bit-identical.
    faults: Option<FaultPlan>,
    /// Recovery policy for injected load faults.
    retry: RetryPolicy,
    /// Injection/recovery accounting for this session.
    fault_ledger: FaultLedger,
    /// Stretch applied to the compute leg of every batch started while
    /// it is set (see [`EngineSession::set_service_factor`]); 1.0
    /// leaves service untouched.
    service_factor: f64,
}

/// Cumulative counters of a live session, cheap enough to read at every
/// control tick (unlike [`EngineSession::snapshot`], which summarizes
/// the whole latency ledger). A control loop takes per-tick telemetry
/// as the difference of two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Jobs whose first stage passed admission control.
    pub admitted: usize,
    /// Jobs shed by admission control.
    pub dropped: usize,
    /// Executor time spent so far: execution plus expert switching.
    pub busy: SimSpan,
    /// When the last batch finished (zero before any did).
    pub last_done: SimTime,
}

impl fmt::Debug for EngineSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSession")
            .field("label", &self.label)
            .field("submitted", &self.submitted_jobs.len())
            .field("completed", &self.completed)
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl<'a> EngineSession<'a> {
    fn new(engine: &Engine<'a>, label: impl Into<String>) -> Self {
        let layout = engine.memory_layout();
        let pools = preload(engine, &layout);
        let execs: Vec<ExecState<'a>> = engine
            .config
            .executors
            .iter()
            .zip(&layout.executors)
            .zip(pools)
            .map(|((&processor, mem), pool)| ExecState {
                processor,
                pool,
                workspace: mem.workspace,
                queue: ExecutorQueue::new(),
                busy_until: SimTime::ZERO,
                in_flight: None,
                batches: 0,
                items: 0,
                exec_time: SimSpan::ZERO,
                switch_time: SimSpan::ZERO,
                switches: 0,
                finished_at: SimTime::ZERO,
                work_exec: SimSpan::ZERO,
                switch_spans: Vec::new(),
                switch_total: SimSpan::ZERO,
            })
            .collect();
        let cache = engine
            .device
            .has_staging_cache()
            .then(|| ModelPool::new(layout.cache, EvictionPolicy::Lru, engine.model, engine.perf));
        // Dense prediction tables: arch ids are sparse, so map each to
        // its position in the model's sorted arch list and precompute
        // every per-(executor, arch) constant the hot path consults.
        let arch_ids: Vec<ArchId> = engine.model.archs().map(|a| a.id()).collect();
        let arch_slot: Vec<u32> = (0..engine.model.num_experts())
            .map(|i| {
                let arch = engine.model.expert(ExpertId(i as u32)).arch();
                arch_ids
                    .binary_search(&arch)
                    .expect("validated models declare every expert's arch") as u32
            })
            .collect();
        let perf_cache: Vec<PerfCacheEntry> = execs
            .iter()
            .flat_map(|exec| {
                let perf = engine.perf;
                let processor = exec.processor;
                let workspace = exec.workspace;
                let device = engine.device;
                let model = engine.model;
                arch_ids.iter().map(move |&arch| {
                    let entry = perf.expect_entry(arch, processor);
                    PerfCacheEntry {
                        k_ms: entry.k_ms,
                        b_ms: entry.b_ms,
                        batch_cap: entry.executable_batch(workspace),
                        weights: model
                            .archs()
                            .find(|a| a.id() == arch)
                            .expect("arch ids come from the model")
                            .weights(),
                        kernel: device
                            .kernel(arch, processor)
                            .expect("validated at engine construction")
                            .latency,
                        run_spans: SpanMemo::default(),
                        kernel_spans: SpanMemo::default(),
                        load_miss: None,
                        load_hit: None,
                    }
                })
            })
            .collect();
        let assign_rows: Vec<AssignRow> = arch_ids
            .iter()
            .flat_map(|&arch| {
                execs.iter().map(move |exec| {
                    let entry = engine.perf.expect_entry(arch, exec.processor);
                    AssignRow::new(entry, exec.processor, exec.workspace)
                })
            })
            .collect();
        EngineSession {
            engine: engine.clone(),
            label: label.into(),
            submitted_jobs: Vec::new(),
            stage_arena: Vec::new(),
            completions: Vec::new(),
            events: Calendar::new(lane::COUNT),
            arch_slot,
            perf_cache,
            num_arch_slots: arch_ids.len(),
            assign_rows,
            demotions: vec![None; arch_ids.len()],
            scheduler: PooledResource::new("scheduler", SCHEDULER_SLOTS),
            gpu_compute: FifoResource::new("gpu-compute"),
            cpu_compute: FifoResource::new("cpu-compute"),
            dma: FifoResource::new("dma"),
            ssd: FifoResource::new("ssd"),
            host_work: PooledResource::new("host-work", engine.device.host_work_slots()),
            execs,
            cache,
            jobs: Vec::new(),
            rr_cursor: 0,
            completed: 0,
            failed: 0,
            admitted: 0,
            dropped: 0,
            stages_executed: 0,
            last_done: SimTime::ZERO,
            switch_events: Vec::new(),
            job_latencies: Vec::new(),
            stage_latencies: Vec::new(),
            sched_latencies: Vec::new(),
            totals_scratch: Vec::new(),
            batch_pool: Vec::new(),
            legs_pool: Vec::new(),
            victims: Vec::new(),
            cache_victims: Vec::new(),
            tracer: Box::new(NoopTracer),
            tracing: false,
            trace_node: 0,
            faults: None,
            retry: RetryPolicy::none(),
            fault_ledger: FaultLedger::default(),
            service_factor: 1.0,
        }
    }

    /// The session label (report/snapshot task name).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The session's current simulation time (timestamp of the last
    /// processed event; zero before any event processed).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Number of events waiting in the session's calendar.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Whether every submitted job has reached a terminal state.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
    }

    /// Submits one job: `stages` is the expert chain, `arrival` its
    /// (simulation-time) arrival. Returns the job id completions will
    /// carry. Arrivals before the session's current time are floored to
    /// "now"; nothing executes until the event loop is pumped.
    ///
    /// # Errors
    ///
    /// Rejects empty or over-long stage chains and experts outside the
    /// model; the session state is untouched on error.
    pub fn submit(&mut self, arrival: SimTime, stages: &[ExpertId]) -> Result<u32, SubmitError> {
        if stages.is_empty() {
            return Err(SubmitError::EmptyStages);
        }
        if stages.len() > usize::from(u8::MAX) {
            return Err(SubmitError::TooManyStages(stages.len()));
        }
        let num_experts = self.engine.model.num_experts();
        if let Some(&bad) = stages.iter().find(|e| e.index() >= num_experts) {
            return Err(SubmitError::UnknownExpert(bad));
        }
        let job = u32::try_from(self.submitted_jobs.len()).expect("more than u32::MAX jobs");
        let arrival = arrival.max(self.events.now());
        let first_stage = u32::try_from(self.stage_arena.len()).expect("stage arena overflow");
        self.stage_arena.extend_from_slice(stages);
        self.submitted_jobs.push(SubmittedJob {
            arrival,
            first_stage,
            num_stages: stages.len() as u8,
        });
        self.jobs.push(JobState::default());
        self.events
            .push_lane(lane::ARRIVE, arrival, Ev::Arrive { job, stage: 0 }.pack());
        if self.tracing {
            self.emit(
                arrival,
                TraceKind::Arrived {
                    job,
                    stages: stages.len() as u8,
                },
            );
        }
        Ok(job)
    }

    fn handle_event(&mut self, at: SimTime, word: u64) {
        match Ev::unpack(word) {
            Ev::Arrive { job, stage } => self.on_arrive(job, stage, at),
            Ev::Sched { job, stage } => self.on_sched(job, stage, at),
            Ev::Leg { exec } => self.on_leg(exec as usize, at),
        }
    }

    /// Processes the next pending event. Returns `false` when the
    /// calendar is empty (the session is idle).
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        self.handle_event(ev.at, ev.payload);
        true
    }

    /// Processes events scheduled strictly before `limit` and returns
    /// how many were handled. Use this to advance a live session while
    /// later submissions (with arrivals `>= limit`) may still come:
    /// stopping short of the watermark keeps the event interleaving —
    /// and therefore the results — identical to submitting everything
    /// up front.
    pub fn pump_until(&mut self, limit: SimTime) -> usize {
        let mut n = 0;
        while let Some(ev) = self.events.pop_before(limit) {
            self.handle_event(ev.at, ev.payload);
            n += 1;
        }
        n
    }

    /// Runs the event loop dry (no more submissions expected for now)
    /// and returns how many events were handled.
    pub fn pump(&mut self) -> usize {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Takes every terminal job record produced since the last drain,
    /// in completion order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Installs a structured-event collector. When the new tracer is
    /// enabled, the current pool residency is snapshotted as
    /// [`TraceKind::Preloaded`] events so the exported timeline starts
    /// from a known state. Returns the previous tracer.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) -> Box<dyn Tracer> {
        let old = std::mem::replace(&mut self.tracer, tracer);
        self.tracing = self.tracer.enabled();
        if self.tracing {
            let now = self.events.now();
            let resident: Vec<(u32, ExpertId)> = self
                .execs
                .iter()
                .enumerate()
                .flat_map(|(i, e)| e.pool.residents().map(move |(ex, _)| (i as u32, ex)))
                .collect();
            for (exec, expert) in resident {
                self.emit(now, TraceKind::Preloaded { exec, expert });
            }
        }
        old
    }

    /// Stamps subsequently emitted events with `node` (cluster wiring;
    /// single-node sessions keep the default `0`).
    // Kept without a caller until cluster runs trace every node: each
    // node session then stamps its own id through this.
    // tidy:allow(test-only-api)
    pub fn set_trace_node(&mut self, node: u32) {
        self.trace_node = node;
    }

    /// Arms deterministic expert-load fault injection with the given
    /// recovery policy. A [`FaultPlan::is_disabled`] plan is treated as
    /// no plan at all, so the hot path stays byte-identical to a
    /// session that never called this.
    pub fn set_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.faults = if plan.is_disabled() { None } else { Some(plan) };
        self.retry = retry;
    }

    /// Injection/recovery accounting accumulated so far. All-zero when
    /// no fault plan is armed.
    #[must_use]
    pub fn fault_ledger(&self) -> &FaultLedger {
        &self.fault_ledger
    }

    /// The session's event collector (e.g. to drain or inspect it).
    pub fn tracer_mut(&mut self) -> &mut dyn Tracer {
        &mut *self.tracer
    }

    /// Records one event; call sites guard with the cached `tracing` flag so
    /// the disabled path never constructs a [`TraceEvent`].
    fn emit(&mut self, at: SimTime, kind: TraceKind) {
        self.tracer.record(TraceEvent {
            at,
            node: self.trace_node,
            kind,
        });
    }

    /// Live counters without consuming the session or cloning latency
    /// ledgers.
    #[must_use]
    pub fn snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            system: self.engine.config.name.clone(),
            device: self.engine.device.name().to_string(),
            task: self.label.clone(),
            submitted: self.submitted_jobs.len(),
            completed: self.completed,
            failed: self.failed,
            admitted: self.admitted,
            dropped: self.dropped,
            stages_executed: self.stages_executed,
            makespan: self.last_done.saturating_since(SimTime::ZERO),
            pending_events: self.events.len(),
            completions_pending: self.completions.len(),
            expert_switches: self.switch_events.len() as u64,
            switch_time_total: self.execs.iter().map(|e| e.switch_time).sum(),
            exec_time_total: self.execs.iter().map(|e| e.exec_time).sum(),
            latency: coserve_metrics::stats::Summary::of_spans(&self.job_latencies),
        }
    }

    /// The session's cumulative counters, read without touching the
    /// latency ledgers.
    #[must_use]
    pub fn counters(&self) -> SessionCounters {
        SessionCounters {
            admitted: self.admitted,
            dropped: self.dropped,
            busy: self.execs.iter().map(|e| e.exec_time).sum::<SimSpan>()
                + self.execs.iter().map(|e| e.switch_time).sum::<SimSpan>(),
            last_done: self.last_done,
        }
    }

    /// How long past `at` the session's queued and in-flight work is
    /// predicted to take: the longest per-executor §4.2 remaining-time
    /// estimate (the one request assignment balances). Zero when idle.
    #[must_use]
    pub fn predicted_backlog(&self, at: SimTime) -> SimSpan {
        (0..self.execs.len())
            .map(|exec_idx| self.predict_total(exec_idx, at))
            .fold(SimSpan::ZERO, SimSpan::max)
    }

    /// Stretches the compute leg of every batch started from now on by
    /// `factor` (a slow node; values below 1 are treated as 1). Expert
    /// switches and batches already started keep their spans, and the
    /// stretched span is what the executor's execution time records.
    /// At the default 1.0 service is bit-identical to a session that
    /// never called this.
    pub fn set_service_factor(&mut self, factor: f64) {
        self.service_factor = factor.max(1.0);
    }

    fn on_arrive(&mut self, job: u32, stage: u8, now: SimTime) {
        let res = self
            .scheduler
            .reserve(now, self.engine.config.scheduling_cost);
        // Figure 19 reports the per-request scheduling *processing*
        // latency; backlog behind the serial scheduler thread still
        // delays the enqueue (res.end) but is not part of this metric.
        self.sched_latencies
            .push(res.end.saturating_since(res.start));
        self.events
            .push_lane(lane::SCHED, res.end, Ev::Sched { job, stage }.pack());
        if self.tracing {
            self.emit(
                res.start,
                TraceKind::Scheduled {
                    job,
                    stage,
                    span: res.end.saturating_since(res.start),
                },
            );
        }
    }

    fn on_sched(&mut self, job: u32, stage: u8, now: SimTime) {
        let meta = self.submitted_jobs[job as usize];
        let expert = self.stage_arena[(meta.first_stage + u32::from(stage)) as usize];
        let exec_idx = self.assign(expert, now);
        // Open-loop admission control: a request assigned to a full
        // queue is dropped, terminating its job (stages are sequential,
        // so nothing else of the job is in flight).
        if let Some(admission) = self.engine.config.admission {
            if self.execs[exec_idx].queue.len() >= admission.queue_capacity {
                let state = &mut self.jobs[job as usize];
                if state.is_open() {
                    state.set_dropped();
                    self.dropped += 1;
                    self.completions.push(Completion {
                        job,
                        status: CompletionStatus::Dropped,
                        finished_at: now,
                        latency: now.saturating_since(meta.arrival),
                    });
                    if self.tracing {
                        self.emit(
                            now,
                            TraceKind::Dropped {
                                job,
                                stage,
                                latency: now.saturating_since(meta.arrival),
                            },
                        );
                    }
                }
                return;
            }
        }
        if stage == 0 {
            self.admitted += 1;
            if let Some(state) = self.jobs.get_mut(job as usize) {
                state.set_admitted();
            }
        }
        let req = PendingRequest {
            job: coserve_workload::stream::JobId(job),
            stage,
            expert,
            ready_at: now,
        };
        if self.tracing {
            self.emit(
                now,
                TraceKind::Assigned {
                    job,
                    stage,
                    expert,
                    exec: exec_idx as u32,
                },
            );
        }
        let exec = &mut self.execs[exec_idx];
        if exec.in_flight.is_none() && exec.queue.is_empty() {
            // Direct start: on an idle executor with nothing queued, a
            // queue insert and the pop right behind it would cancel out
            // (the batch is this request alone, since the executable
            // batch is at least 1, and the work-left sums return to
            // zero), so the request starts its batch without queueing.
            let mut batch = self.batch_pool.pop().unwrap_or_default();
            batch.push(req);
            self.start_batch(exec_idx, expert, batch, now);
            return;
        }
        let delta = match (self.engine.config.arrange, self.engine.config.max_overtake) {
            (ArrangePolicy::Grouped, Some(bound)) => exec.queue.insert_grouped_bounded(req, bound),
            (ArrangePolicy::Grouped, None) => exec.queue.insert_grouped(req),
            (ArrangePolicy::Fcfs, _) => exec.queue.push_back(req),
        };
        self.apply_insert_delta(exec_idx, delta);
        self.try_start(exec_idx, now);
    }

    /// Advances an executor's in-flight batch: reserves the next leg's
    /// channel *at the current time* (work-conserving FIFO — channels
    /// are never booked for future instants) or completes the batch.
    fn on_leg(&mut self, exec_idx: usize, now: SimTime) {
        let processor = self.execs[exec_idx].processor;
        let inf = self.execs[exec_idx]
            .in_flight
            .as_mut()
            .expect("Leg event without in-flight batch");
        let Some(leg) = inf.legs.pop_front() else {
            self.finish_batch(exec_idx, now);
            return;
        };
        let mut finished_switch = None;
        let mut compute_batch = None;
        if leg.channel == LegChannel::Compute {
            // The switch (if any) finished when compute becomes ready.
            inf.switch_done = now;
            compute_batch = Some((inf.batch.first().map(|r| r.expert), inf.batch.len() as u32));
            finished_switch = inf.switch.take();
        }
        if let Some(sw) = finished_switch {
            self.switch_events.push(SwitchEvent {
                at: sw.started,
                executor: exec_idx,
                expert: sw.expert,
                source: sw.source,
                duration: now.saturating_since(sw.started),
            });
            if self.tracing {
                self.emit(
                    sw.started,
                    TraceKind::Switch {
                        exec: exec_idx as u32,
                        expert: sw.expert,
                        source: sw.source,
                        span: now.saturating_since(sw.started),
                    },
                );
            }
        }
        let remaining: SimSpan = self.execs[exec_idx]
            .in_flight
            .as_ref()
            .expect("still in flight")
            .legs
            .iter()
            .map(|l| l.span)
            .sum();
        // Each shared channel hands out reservations whose ends are
        // (mostly) non-decreasing, so every channel gets its own
        // calendar lane; the pooled host-work channel trips the lane's
        // monotonicity check and heaps when it must.
        let (res, ch_lane) = match leg.channel {
            LegChannel::Ssd => (self.ssd.reserve(now, leg.span), lane::SSD),
            LegChannel::Dma => (self.dma.reserve(now, leg.span), lane::DMA),
            // Framework work runs on the host-CPU pool: per-executor,
            // but only `host_work_slots` run concurrently device-wide.
            LegChannel::Local => (self.host_work.reserve(now, leg.span), lane::HOST),
            LegChannel::Compute => match processor {
                ProcessorKind::Gpu => (self.gpu_compute.reserve(now, leg.span), lane::GPU),
                ProcessorKind::Cpu => (self.cpu_compute.reserve(now, leg.span), lane::CPU),
            },
        };
        if let Some((expert, items)) = compute_batch {
            if let Some(inf) = self.execs[exec_idx].in_flight.as_mut() {
                // Compute may stall behind the shared FIFO channel;
                // attribution charges that separately from execution.
                inf.exec_start = res.start;
            }
            if self.tracing {
                if let Some(expert) = expert {
                    self.emit(
                        res.start,
                        TraceKind::Exec {
                            exec: exec_idx as u32,
                            expert,
                            items,
                            span: leg.span,
                        },
                    );
                }
            }
        }
        self.execs[exec_idx].busy_until = res.end + remaining;
        let leg = Ev::Leg {
            exec: exec_idx as u32,
        };
        self.events.push_lane(ch_lane, res.end, leg.pack());
    }

    fn finish_batch(&mut self, exec_idx: usize, now: SimTime) {
        let inf = self.execs[exec_idx]
            .in_flight
            .take()
            .expect("finish without in-flight batch");
        let mut batch = inf.batch;
        let mut legs = inf.legs;
        self.execs[exec_idx].finished_at = now;
        self.execs[exec_idx].busy_until = now;
        self.stages_executed += batch.len();
        self.last_done = self.last_done.max(now);
        let tracing = self.tracing;
        for req in batch.drain(..) {
            let stage_slot = usize::from(req.stage);
            if self.stage_latencies.len() <= stage_slot {
                self.stage_latencies.resize_with(stage_slot + 1, Vec::new);
            }
            self.stage_latencies[stage_slot].push(now.saturating_since(req.ready_at));
            if tracing {
                // The four components partition the stage sojourn:
                // queue wait until the batch was popped, then the
                // batch-wide switch / compute-stall / execution spans.
                self.emit(
                    now,
                    TraceKind::StageDone {
                        job: req.job.0,
                        stage: req.stage,
                        exec: exec_idx as u32,
                        expert: req.expert,
                        queue: inf.started.saturating_since(req.ready_at),
                        switch: inf.switch_done.saturating_since(inf.started),
                        stall: inf.exec_start.saturating_since(inf.switch_done),
                        exec_span: now.saturating_since(inf.exec_start),
                    },
                );
            }
            let meta = self.submitted_jobs[req.job.index()];
            let next_stage = req.stage + 1;
            if next_stage < meta.num_stages {
                self.events.push_lane(
                    lane::NOW,
                    now,
                    Ev::Arrive {
                        job: req.job.0,
                        stage: next_stage,
                    }
                    .pack(),
                );
            } else {
                let state = &mut self.jobs[req.job.index()];
                if !state.done() {
                    state.set_done();
                    self.completed += 1;
                    let latency = now.saturating_since(meta.arrival);
                    self.job_latencies.push(latency);
                    self.completions.push(Completion {
                        job: req.job.0,
                        status: CompletionStatus::Completed,
                        finished_at: now,
                        latency,
                    });
                    if tracing {
                        self.emit(
                            now,
                            TraceKind::Completed {
                                job: req.job.0,
                                latency,
                            },
                        );
                    }
                }
            }
        }
        self.recycle_batch(batch);
        legs.clear();
        self.legs_pool.push(legs);
        self.try_start(exec_idx, now);
    }

    /// Returns a drained batch buffer to the pool for reuse.
    fn recycle_batch(&mut self, mut batch: Vec<PendingRequest>) {
        batch.clear();
        self.batch_pool.push(batch);
    }

    /// The current maximum executable batch size for `expert` on
    /// executor `exec_idx` (§4.2's request splitting): the smaller of
    /// the profiled maximum batch and what the executor's workspace
    /// memory accommodates.
    fn executable_batch(&self, exec_idx: usize, expert: ExpertId) -> u32 {
        self.perf_of(exec_idx, expert).batch_cap
    }

    /// Dense arch slot of `expert`.
    fn arch_slot_of(&self, expert: ExpertId) -> usize {
        self.arch_slot[expert.index()] as usize
    }

    /// Position of `(exec_idx, expert's arch)` in `perf_cache`.
    fn perf_index(&self, exec_idx: usize, expert: ExpertId) -> usize {
        exec_idx * self.num_arch_slots + self.arch_slot_of(expert)
    }

    /// Dense per-(executor, arch) cost constants for `expert` —
    /// replaces the per-probe `expect_entry` map lookups on the hot
    /// path.
    #[inline]
    fn perf_of(&self, exec_idx: usize, expert: ExpertId) -> &PerfCacheEntry {
        &self.perf_cache[self.perf_index(exec_idx, expert)]
    }

    /// [`EngineSession::perf_of`], writable to fill its memos.
    fn perf_of_mut(&mut self, exec_idx: usize, expert: ExpertId) -> &mut PerfCacheEntry {
        let index = self.perf_index(exec_idx, expert);
        &mut self.perf_cache[index]
    }

    /// The assignment rows of `expert`'s architecture, one per
    /// executor in executor order.
    fn assign_rows(&self, expert: ExpertId) -> &[AssignRow] {
        let n = self.execs.len();
        let start = self.arch_slot_of(expert) * n;
        &self.assign_rows[start..start + n]
    }

    /// Whether the staging cache holds `expert`.
    fn cached(&self, expert: ExpertId) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(expert))
    }

    /// Predicted load latency for `expert` on executor `exec_idx` if it
    /// had to be switched in right now (0 when resident, or when there
    /// is no such executor).
    fn predicted_switch(&self, exec_idx: usize, expert: ExpertId) -> SimSpan {
        match (
            self.execs.get(exec_idx),
            self.assign_rows(expert).get(exec_idx),
        ) {
            (Some(exec), Some(row)) if !exec.pool.contains(expert) => {
                row.switch(self.cached(expert))
            }
            _ => SimSpan::ZERO,
        }
    }

    /// [`PerfCacheEntry::run_span`] of `expert`'s run on `exec_idx`.
    fn run_exec_span(&mut self, exec_idx: usize, expert: ExpertId, count: u32) -> SimSpan {
        self.perf_of_mut(exec_idx, expert).run_span(count)
    }

    /// The transfer stages of loading `expert` onto executor `exec_idx`,
    /// a `processor`, from the staging cache (`cached`) or from SSD:
    /// [`load_route`] priced by [`DeviceProfile::transfer_stages`], or
    /// `None` when the load moves nothing. Priced once per session per
    /// (executor, architecture, source).
    fn load_stages(
        &mut self,
        exec_idx: usize,
        expert: ExpertId,
        processor: ProcessorKind,
        cached: bool,
    ) -> Option<TransferStages> {
        let device = self.engine.device;
        let entry = self.perf_of_mut(exec_idx, expert);
        let weights = entry.weights;
        let memo = if cached {
            &mut entry.load_hit
        } else {
            &mut entry.load_miss
        };
        *memo.get_or_insert_with(|| {
            load_route(processor, cached).map(|r| device.transfer_stages(weights, r))
        })
    }

    /// The GPU→CPU demotion span of `victim`, resident on executor
    /// `exec_idx` with `bytes`, priced once per session per
    /// architecture. Exact because a resident's bytes are always its
    /// architecture's checkpoint size: preload inserts
    /// `CoeModel::weight_bytes` and loads insert the architecture's
    /// `weights`.
    fn demotion_span(&mut self, exec_idx: usize, victim: ExpertId, bytes: Bytes) -> SimSpan {
        debug_assert_eq!(
            bytes,
            self.perf_of(exec_idx, victim).weights,
            "{victim} resident with other than its checkpoint size"
        );
        let device = self.engine.device;
        let price = || device.transfer_duration(bytes, TransferRoute::GpuToCpu);
        let slot = self.arch_slot_of(victim);
        self.demotions
            .get_mut(slot)
            .map_or_else(price, |memo| *memo.get_or_insert_with(price))
    }

    /// Folds a queue-insert [`RunDelta`] into the executor's cached
    /// work-left aggregates.
    fn apply_insert_delta(&mut self, exec_idx: usize, delta: RunDelta) {
        let before = self.run_exec_span(exec_idx, delta.expert, delta.len_before);
        let after = self.run_exec_span(exec_idx, delta.expert, delta.len_after);
        let switch = if delta.membership_changed {
            self.predicted_switch(exec_idx, delta.expert)
        } else {
            SimSpan::ZERO
        };
        let exec = &mut self.execs[exec_idx];
        exec.work_exec = exec.work_exec + after - before;
        if delta.membership_changed {
            match exec
                .switch_spans
                .binary_search_by_key(&delta.expert, |&(e, _)| e)
            {
                Err(pos) => {
                    exec.switch_spans.insert(pos, (delta.expert, switch));
                    exec.switch_total += switch;
                }
                Ok(_) => debug_assert!(false, "membership_changed for an indexed expert"),
            }
        }
    }

    /// Folds a batch-pop [`RunDelta`] into the executor's cached
    /// work-left aggregates.
    fn apply_pop_delta(&mut self, exec_idx: usize, delta: RunDelta) {
        let before = self.run_exec_span(exec_idx, delta.expert, delta.len_before);
        let after = self.run_exec_span(exec_idx, delta.expert, delta.len_after);
        let exec = &mut self.execs[exec_idx];
        exec.work_exec = exec.work_exec + after - before;
        if delta.membership_changed {
            if let Ok(pos) = exec
                .switch_spans
                .binary_search_by_key(&delta.expert, |&(e, _)| e)
            {
                let (_, span) = exec.switch_spans.remove(pos);
                exec.switch_total -= span;
            }
        }
    }

    /// Re-prices `expert`'s cached switch estimate on executor
    /// `exec_idx` after the expert entered or left that executor's pool
    /// or the staging cache — the only inputs of
    /// [`EngineSession::predicted_switch`]. A no-op unless the expert
    /// is queued there. Spans are integer nanoseconds, so swapping one
    /// entry's term in `switch_total` matches a fresh sum bit for bit.
    fn reprice_switch(&mut self, exec_idx: usize, expert: ExpertId) {
        if !self.execs[exec_idx].queue.contains_expert(expert) {
            return;
        }
        let span = self.predicted_switch(exec_idx, expert);
        let exec = &mut self.execs[exec_idx];
        if let Ok(pos) = exec.switch_spans.binary_search_by_key(&expert, |&(e, _)| e) {
            let old = std::mem::replace(&mut exec.switch_spans[pos].1, span);
            exec.switch_total = exec.switch_total - old + span;
        }
    }

    /// [`EngineSession::reprice_switch`] on every executor: the staging
    /// cache is shared, so its membership prices `expert`'s load
    /// everywhere.
    fn reprice_switch_everywhere(&mut self, expert: ExpertId) {
        for exec_idx in 0..self.execs.len() {
            self.reprice_switch(exec_idx, expert);
        }
    }

    /// Predicted total remaining inference time of an executor queue
    /// (§4.2): in-flight remainder plus, per same-expert run, the linear
    /// execution estimate and at most one expert switch. A read of the
    /// incrementally maintained aggregates; debug builds verify them
    /// against a from-scratch recomputation.
    fn predict_total(&self, exec_idx: usize, now: SimTime) -> SimSpan {
        #[cfg(debug_assertions)]
        self.debug_verify_aggregates(exec_idx);
        let exec = &self.execs[exec_idx];
        exec.busy_until.saturating_since(now) + exec.work_exec + exec.switch_total
    }

    /// The executor's `(work_exec, switch_total)` recomputed from
    /// scratch by walking its queue's runs and pricing each distinct
    /// expert's switch once.
    #[cfg(any(test, debug_assertions))]
    fn recompute_aggregates(&self, exec_idx: usize) -> (SimSpan, SimSpan) {
        let exec = &self.execs[exec_idx];
        let mut seen: BTreeSet<ExpertId> = BTreeSet::new();
        let mut fresh_exec = SimSpan::ZERO;
        let mut fresh_switch = SimSpan::ZERO;
        for (expert, count) in exec.queue.runs_iter() {
            fresh_exec += self.perf_of(exec_idx, expert).price_run(count);
            if seen.insert(expert) {
                fresh_switch += self.predicted_switch(exec_idx, expert);
            }
        }
        (fresh_exec, fresh_switch)
    }

    /// The request-assigning oracle (§4.2), priced from the perf matrix
    /// instead of the session's tables: the predicted additional latency
    /// of appending a request for `expert` to queue `exec_idx` — `K`
    /// when it joins an existing batch with room, `K + B` when it opens
    /// a new batch, plus the switch latency when the expert is neither
    /// resident nor already queued. [`AssignRow::delta`] must match it.
    #[cfg(any(test, debug_assertions))]
    fn predict_delta(&self, exec_idx: usize, expert: ExpertId) -> SimSpan {
        let Some(exec) = self.execs.get(exec_idx) else {
            return SimSpan::ZERO;
        };
        let arch = self.engine.model.expert(expert).arch();
        let entry = self.engine.perf.expect_entry(arch, exec.processor);
        let span_kb = SimSpan::from_millis_f64(entry.k_ms + entry.b_ms);
        let switch = match (exec.processor, self.cached(expert)) {
            _ if exec.pool.contains(expert) => SimSpan::ZERO,
            (ProcessorKind::Gpu, true) => entry.load_from_cpu,
            (ProcessorKind::Cpu, true) => SimSpan::ZERO,
            (_, false) => entry.load_from_ssd,
        };
        let batch_cap = entry.executable_batch(exec.workspace);
        match exec.queue.queued_last_run_len(expert) {
            Some(last_run_len) if last_run_len % batch_cap != 0 => {
                SimSpan::from_millis_f64(entry.k_ms)
            }
            Some(_) => span_kb,
            None => span_kb + switch,
        }
    }

    /// Debug-only: the cached aggregates must equal a from-scratch
    /// recomputation, bit for bit.
    #[cfg(debug_assertions)]
    fn debug_verify_aggregates(&self, exec_idx: usize) {
        let exec = &self.execs[exec_idx];
        let (fresh_exec, fresh_switch) = self.recompute_aggregates(exec_idx);
        debug_assert_eq!(exec.work_exec, fresh_exec, "work_exec aggregate drifted");
        debug_assert_eq!(exec.switch_total, fresh_switch, "switch aggregate drifted");
    }

    /// Chooses the executor for a request (§4.2's request assigning).
    fn assign(&mut self, expert: ExpertId, now: SimTime) -> usize {
        match self.engine.config.assign {
            AssignPolicy::RoundRobin => {
                let idx = self.rr_cursor % self.execs.len();
                self.rr_cursor += 1;
                idx
            }
            AssignPolicy::DependencyAware => {
                let n = self.execs.len();
                let mut totals = std::mem::take(&mut self.totals_scratch);
                totals.clear();
                totals.extend((0..n).map(|i| self.predict_total(i, now)));
                // The max of "all queues except q" is the global max
                // unless q *is* the (unique) argmax, in which case it is
                // the runner-up — O(executors) total instead of
                // O(executors²) refolds.
                let mut max1 = SimSpan::ZERO;
                let mut max1_idx = 0usize;
                let mut max2 = SimSpan::ZERO;
                for (i, &t) in totals.iter().enumerate() {
                    if t > max1 {
                        max2 = max1;
                        max1 = t;
                        max1_idx = i;
                    } else if t > max2 {
                        max2 = t;
                    }
                }
                // One staging-cache probe prices the switch on every
                // executor; the rows are one contiguous block.
                let cached = self.cached(expert);
                let rows = self.assign_rows(expert);
                let mut best: Option<(SimSpan, SimSpan, usize)> = None;
                for (q, ((&total, exec), row)) in
                    totals.iter().zip(&self.execs).zip(rows).enumerate()
                {
                    let delta = row.delta(exec, expert, cached);
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        delta,
                        self.predict_delta(q, expert),
                        "assignment row drifted"
                    );
                    // Makespan if the request goes to q: q's new total
                    // vs the max of the other queues.
                    let others = if q == max1_idx { max2 } else { max1 };
                    let makespan = others.max(total + delta);
                    let key = (makespan, delta, q);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                self.totals_scratch = totals;
                best.expect("at least one executor").2
            }
        }
    }

    /// Starts batches on an idle executor until it becomes busy or its
    /// queue drains. Batches whose expert cannot be made resident fail
    /// their requests and the loop continues.
    fn try_start(&mut self, exec_idx: usize, now: SimTime) {
        loop {
            if self.execs[exec_idx].in_flight.is_some() {
                return;
            }
            let Some(expert) = self.execs[exec_idx].queue.front_expert() else {
                return;
            };
            let max_batch = self.executable_batch(exec_idx, expert);
            let mut batch = self.batch_pool.pop().unwrap_or_default();
            let delta = self.execs[exec_idx]
                .queue
                .pop_front_group_into(max_batch, &mut batch);
            if let Some(delta) = delta {
                self.apply_pop_delta(exec_idx, delta);
            }
            debug_assert!(!batch.is_empty());
            if self.start_batch(exec_idx, expert, batch, now) {
                return; // executor is now busy
            }
            // Batch failed (expert unservable); keep draining the queue.
        }
    }

    /// Attempts to switch in `expert` (if needed) and execute `batch`.
    /// Returns false when the expert cannot be served on this executor,
    /// in which case the batch's jobs are marked failed.
    fn start_batch(
        &mut self,
        exec_idx: usize,
        expert: ExpertId,
        batch: Vec<PendingRequest>,
        now: SimTime,
    ) -> bool {
        let weights = self.perf_of(exec_idx, expert).weights;
        let processor = self.execs[exec_idx].processor;

        let mut legs: std::collections::VecDeque<Leg> = self.legs_pool.pop().unwrap_or_default();
        let mut switch_busy = SimSpan::ZERO;
        let push_leg = |legs: &mut std::collections::VecDeque<Leg>,
                        busy: &mut SimSpan,
                        channel: LegChannel,
                        span: SimSpan| {
            if !span.is_zero() {
                legs.push_back(Leg { channel, span });
                *busy += span;
            }
        };
        let mut pending_switch = None;

        // Failed SSD/tier read attempts charged before the successful
        // load, and a slowdown factor applied to its transfer stages.
        // Both stay zero/1.0 — and the plan is never consulted — when
        // no faults are armed, keeping that path bit-identical.
        let mut fault_retries = 0u32;
        let mut fault_slow = 1.0f64;

        if !self.execs[exec_idx].pool.contains(expert) {
            if weights > self.execs[exec_idx].pool.capacity() {
                self.fail_batch(&batch, now);
                self.recycle_batch(batch);
                return false;
            }
            if let Some(plan) = &self.faults {
                match plan.expert_load(self.trace_node, exec_idx as u32, expert.0, now) {
                    LoadOutcome::Healthy => {}
                    LoadOutcome::Slow(factor) => fault_slow = factor,
                    LoadOutcome::Fail { failures } => {
                        self.fault_ledger.load_faults += 1;
                        self.fault_ledger.note_fault(now);
                        let retry = self.retry;
                        if failures > retry.max_retries {
                            // Recovery exhausted: every attempt the
                            // policy allowed was spent for nothing.
                            // Price each as one read from the tier the
                            // load would come from right now.
                            let cached = self.cached(expert);
                            let read_est = self
                                .load_stages(exec_idx, expert, processor, cached)
                                .map_or(SimSpan::ZERO, |s| s.ssd);
                            let spent = retry.max_retries;
                            self.fault_ledger.retries += u64::from(spent);
                            self.fault_ledger.load_exhausted += 1;
                            self.fault_ledger.wasted_time += SimSpan::from_nanos(
                                read_est.nanos().saturating_mul(u64::from(spent) + 1),
                            );
                            self.fault_ledger.backoff_time += retry.total_backoff(spent);
                            if self.tracing {
                                self.emit(
                                    now,
                                    TraceKind::LoadFault {
                                        exec: exec_idx as u32,
                                        expert,
                                        failures,
                                        recovered: false,
                                    },
                                );
                            }
                            self.fail_batch(&batch, now);
                            self.recycle_batch(batch);
                            return false;
                        }
                        fault_retries = failures;
                    }
                }
            }
            // Free space from the pool's kept victim order. The
            // protected set is a one-element slice over `expert`, and
            // the victim list is reused across evictions, so none of
            // this allocates.
            let pool = &self.execs[exec_idx].pool;
            let need = weights.saturating_sub(pool.available());
            let protected = std::slice::from_ref(&expert);
            if pool
                .select_victims_into(need, protected, &mut self.victims)
                .is_err()
            {
                self.fail_batch(&batch, now);
                self.recycle_batch(batch);
                return false;
            }
            for vi in 0..self.victims.len() {
                let victim = self.victims[vi];
                let meta = self
                    .set_residency(Site::Pool(exec_idx), victim, Residency::Leave, now)
                    .expect("victims are resident");
                if self.tracing {
                    self.emit(
                        now,
                        TraceKind::Evicted {
                            exec: exec_idx as u32,
                            expert: victim,
                            demoted: self.cache.is_some(),
                        },
                    );
                }
                if self.cache.is_some() {
                    if processor == ProcessorKind::Gpu {
                        // Demote over the DMA channel into the staging
                        // cache (device→host copy).
                        let span = self.demotion_span(exec_idx, victim, meta.bytes);
                        push_leg(&mut legs, &mut switch_busy, LegChannel::Dma, span);
                    }
                    // CPU-executor evictions are already in host RAM;
                    // the cache insert is free either way.
                    self.cache_insert(victim, meta.bytes, now);
                }
            }

            // Load the expert from its best source tier.
            let cached = self.cached(expert);
            let source = if cached {
                MemoryTier::Cpu
            } else {
                MemoryTier::Ssd
            };
            let stages = self.load_stages(exec_idx, expert, processor, cached);
            // Charge each failed attempt as a full read on the storage
            // channel (the read fails at the tier, after occupying it)
            // followed by exponential backoff on the executor's own
            // timeline. Staging-cache hits on a CPU executor have no
            // transfer, so their retries cost backoff only.
            let retry_read = stages.map_or(SimSpan::ZERO, |s| s.ssd);
            for attempt in 0..fault_retries {
                push_leg(&mut legs, &mut switch_busy, LegChannel::Ssd, retry_read);
                let pause = self.retry.backoff(attempt);
                push_leg(&mut legs, &mut switch_busy, LegChannel::Local, pause);
                self.fault_ledger.wasted_time += retry_read;
                self.fault_ledger.backoff_time += pause;
            }
            if fault_retries > 0 {
                self.fault_ledger.retries += u64::from(fault_retries);
                self.fault_ledger.load_recovered += 1;
                if self.tracing {
                    self.emit(
                        now,
                        TraceKind::LoadFault {
                            exec: exec_idx as u32,
                            expert,
                            failures: fault_retries,
                            recovered: true,
                        },
                    );
                }
            }
            if let Some(mut stages) = stages {
                if fault_slow > 1.0 {
                    // A degraded (but live) tier: every stage of the
                    // successful read is dilated.
                    let raw = stages.ssd + stages.local + stages.dma;
                    stages.ssd = stages.ssd.mul_f64(fault_slow);
                    stages.local = stages.local.mul_f64(fault_slow);
                    stages.dma = stages.dma.mul_f64(fault_slow);
                    let extra = (stages.ssd + stages.local + stages.dma).saturating_sub(raw);
                    self.fault_ledger.slow_loads += 1;
                    self.fault_ledger.note_fault(now);
                    self.fault_ledger.degraded_time += extra;
                    if self.tracing {
                        self.emit(
                            now,
                            TraceKind::SlowLoad {
                                exec: exec_idx as u32,
                                expert,
                                extra,
                            },
                        );
                    }
                }
                push_leg(&mut legs, &mut switch_busy, LegChannel::Ssd, stages.ssd);
                // Deserialization/reorganization is per-executor CPU
                // work: it occupies this executor's timeline but no
                // shared channel, so concurrent executors overlap it.
                push_leg(&mut legs, &mut switch_busy, LegChannel::Local, stages.local);
                push_leg(&mut legs, &mut switch_busy, LegChannel::Dma, stages.dma);
            }
            if fault_retries > 0 || (fault_slow > 1.0 && stages.is_some()) {
                // The recovery completes when the switch legs drain.
                self.fault_ledger.note_recovery(now + switch_busy);
            }
            if cached {
                self.set_residency(Site::Cache, expert, Residency::Use, now);
            }
            if source == MemoryTier::Ssd && processor == ProcessorKind::Gpu {
                // A cold load passes through host memory; keep the copy
                // (inclusive staging cache), as the Samba-CoE baseline
                // describes for NUMA devices.
                self.cache_insert(expert, weights, now);
            }
            self.set_residency(Site::Pool(exec_idx), expert, Residency::Enter(weights), now);
            self.execs[exec_idx].switches += 1;
            self.execs[exec_idx].switch_time += switch_busy;
            pending_switch = Some(PendingSwitch {
                expert,
                source,
                started: now,
            });
            if self.tracing {
                self.emit(
                    now,
                    TraceKind::Loaded {
                        exec: exec_idx as u32,
                        expert,
                        source,
                    },
                );
            }
        }

        // Execute on the processor's compute channel (ground truth
        // latency, not the profiler's estimate), stretched on a slow
        // node.
        let mut exec_span = self
            .perf_of_mut(exec_idx, expert)
            .kernel_span(batch.len() as u32);
        if self.service_factor > 1.0 {
            exec_span = exec_span.mul_f64(self.service_factor);
        }
        let mut exec_busy = SimSpan::ZERO;
        push_leg(&mut legs, &mut exec_busy, LegChannel::Compute, exec_span);
        let total = switch_busy + exec_busy;

        self.set_residency(Site::Pool(exec_idx), expert, Residency::Use, now);
        let exec = &mut self.execs[exec_idx];
        exec.batches += 1;
        exec.items += batch.len() as u64;
        exec.exec_time += exec_span;
        exec.busy_until = now + total;
        exec.in_flight = Some(InFlight {
            batch,
            legs,
            switch: pending_switch,
            started: now,
            switch_done: now,
            exec_start: now,
        });
        let leg = Ev::Leg {
            exec: exec_idx as u32,
        };
        self.events.push_lane(lane::NOW, now, leg.pack());
        true
    }

    fn fail_batch(&mut self, batch: &[PendingRequest], now: SimTime) {
        for req in batch {
            let state = &mut self.jobs[req.job.index()];
            if !state.failed() && !state.done() {
                state.set_failed();
                self.failed += 1;
                let arrival = self.submitted_jobs[req.job.index()].arrival;
                self.completions.push(Completion {
                    job: req.job.0,
                    status: CompletionStatus::Failed,
                    finished_at: now,
                    latency: now.saturating_since(arrival),
                });
                if self.tracing {
                    self.emit(
                        now,
                        TraceKind::Failed {
                            job: req.job.0,
                            latency: now.saturating_since(arrival),
                        },
                    );
                }
            }
        }
    }

    /// Inserts into the staging cache, evicting least-recently-used
    /// entries from the head of its list until the expert fits.
    /// Oversized experts are simply not cached. Every expert that
    /// enters or leaves the cache is re-priced on every executor, since
    /// the cache decides its load tier.
    fn cache_insert(&mut self, expert: ExpertId, bytes: Bytes, now: SimTime) {
        let Some(cache) = &self.cache else {
            return;
        };
        if cache.contains(expert) {
            self.set_residency(Site::Cache, expert, Residency::Use, now);
            return;
        }
        let need = bytes.saturating_sub(cache.available());
        if bytes > cache.capacity()
            || cache
                .select_victims_into(need, &[], &mut self.cache_victims)
                .is_err()
        {
            return;
        }
        for vi in 0..self.cache_victims.len() {
            let lru = self.cache_victims[vi];
            self.set_residency(Site::Cache, lru, Residency::Leave, now);
            if self.tracing {
                self.emit(now, TraceKind::CacheEvicted { expert: lru });
            }
        }
        self.set_residency(Site::Cache, expert, Residency::Enter(bytes), now);
        if self.tracing {
            self.emit(now, TraceKind::CacheInserted { expert });
        }
    }

    /// The one path by which residency changes, in an executor's pool
    /// or in the staging cache: preload aside, every load, victim
    /// removal, demotion, staging-cache eviction and hit goes through
    /// here. The pool or cache moves its eviction order in the same
    /// call; an expert that enters or leaves has its cached switch
    /// estimate re-priced where it is queued (every executor, for the
    /// shared cache). Debug builds then check the changed order against
    /// a from-scratch rebuild, as `debug_verify_aggregates` does for
    /// the work-left sums. Returns the metadata of an expert that left.
    ///
    /// Entering requires room: the caller evicted first.
    fn set_residency(
        &mut self,
        site: Site,
        expert: ExpertId,
        change: Residency,
        now: SimTime,
    ) -> Option<Resident> {
        let pool = match site {
            Site::Pool(exec_idx) => self.execs.get_mut(exec_idx).map(|exec| &mut exec.pool),
            Site::Cache => self.cache.as_mut(),
        }?;
        let mut left = None;
        match change {
            Residency::Enter(bytes) => pool
                .insert(expert, bytes, now)
                .expect("the caller made room"),
            Residency::Leave => left = pool.remove(expert),
            Residency::Use => pool.touch(expert, now),
        }
        if !matches!(change, Residency::Use) {
            match site {
                Site::Pool(exec_idx) => self.reprice_switch(exec_idx, expert),
                Site::Cache => self.reprice_switch_everywhere(expert),
            }
        }
        #[cfg(debug_assertions)]
        assert!(
            self.order_is_exact(site),
            "{site:?}'s eviction order drifted from a rebuild"
        );
        left
    }

    /// Whether `site`'s kept eviction order equals a from-scratch
    /// rebuild (a site without a pool has none to drift).
    #[cfg(any(test, debug_assertions))]
    fn order_is_exact(&self, site: Site) -> bool {
        let pool = match site {
            Site::Pool(exec_idx) => self.execs.get(exec_idx).map(|exec| &exec.pool),
            Site::Cache => self.cache.as_ref(),
        };
        pool.is_none_or(ModelPool::order_is_exact)
    }

    /// Consumes the session into the classic batch [`RunReport`]. The
    /// report's `task` is the session label; `submitted` counts every
    /// `submit` call. Completions not yet drained are discarded — the
    /// ledgers in the report carry the same information.
    #[must_use]
    pub fn into_report(self) -> RunReport {
        let executors = self
            .execs
            .iter()
            .enumerate()
            .map(|(index, e)| ExecutorReport {
                index,
                processor: e.processor,
                batches: e.batches,
                items: e.items,
                exec_time: e.exec_time,
                switch_time: e.switch_time,
                switches: e.switches,
                pool_capacity: e.pool.capacity(),
                pool_peak: e.pool.peak(),
                finished_at: e.finished_at,
            })
            .collect();
        let mut channels: Vec<ChannelReport> =
            [&self.gpu_compute, &self.cpu_compute, &self.dma, &self.ssd]
                .into_iter()
                .map(|c| ChannelReport {
                    name: c.name(),
                    busy: c.busy_total(),
                    reservations: c.reservation_count(),
                })
                .collect();
        for pooled in [&self.scheduler, &self.host_work] {
            channels.push(ChannelReport {
                name: pooled.name(),
                busy: pooled.busy_total(),
                reservations: pooled.reservation_count(),
            });
        }
        let switch_time_total = self.execs.iter().map(|e| e.switch_time).sum();
        let exec_time_total = self.execs.iter().map(|e| e.exec_time).sum();
        // The report keeps the sparse stage→latencies map shape; the
        // session's dense per-stage table converts back losslessly
        // (stages are only ever reached in order, so observed stages
        // are exactly the non-empty slots).
        let stage_latencies: BTreeMap<u8, Vec<SimSpan>> = self
            .stage_latencies
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(stage, v)| (stage as u8, v))
            .collect();
        RunReport {
            system: self.engine.config.name.clone(),
            device: self.engine.device.name().to_string(),
            task: self.label,
            submitted: self.submitted_jobs.len(),
            completed: self.completed,
            failed: self.failed,
            admitted: self.admitted,
            dropped: self.dropped,
            stages_executed: self.stages_executed,
            makespan: self.last_done.saturating_since(SimTime::ZERO),
            switch_events: self.switch_events,
            switch_time_total,
            exec_time_total,
            job_latencies: self.job_latencies,
            stage_latencies,
            sched_latencies: self.sched_latencies,
            executors,
            channels,
        }
    }

    /// Closes the session mid-run (its node died): returns the report
    /// of what ended plus the ids of the jobs still open, in submission
    /// order. Open jobs leave the report's `submitted` and `admitted`
    /// counts, so the report conserves jobs on its own
    /// (`completed + failed + dropped == submitted`); the work their
    /// earlier stages already did stays in the ledgers.
    #[must_use]
    pub fn evacuate(self) -> (RunReport, Vec<u32>) {
        let mut open = Vec::new();
        let mut open_admitted = 0;
        for (job, state) in (0u32..).zip(&self.jobs) {
            if state.is_open() {
                open.push(job);
                open_admitted += usize::from(state.admitted());
            }
        }
        let mut report = self.into_report();
        report.submitted -= open.len();
        report.admitted -= open_admitted;
        (report, open)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::{ArrangePolicy, AssignPolicy, SystemConfig};
    use crate::evict::EvictionPolicy;
    use crate::profiler::{Profiler, UsageSource};
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::StreamOrder;
    use proptest::prelude::*;

    impl EngineSession<'_> {
        /// Swaps the session's calendar for a reference (single-heap)
        /// one, [`Calendar::reference`]. Must be called before the first
        /// submission.
        fn use_reference_calendar(&mut self) {
            assert!(
                self.events.is_empty() && self.submitted_jobs.is_empty(),
                "switch calendars only on a fresh session"
            );
            self.events = Calendar::reference(lane::COUNT);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Conservation: under arbitrary policy combinations every
        /// submitted job either completes or fails; switch counts per
        /// executor sum to the ledger; determinism holds.
        #[test]
        fn engine_conserves_jobs(
            gpus in 1usize..4,
            cpus in 0usize..2,
            assign_da in any::<bool>(),
            arrange_grouped in any::<bool>(),
            evict_sel in 0u8..3,
            admit in any::<bool>(),
            overtake_sel in 0u8..3,
            seed in 0u64..1_000,
        ) {
            let board = BoardSpec::synthetic("prop", 12, 2, 1.2, 20.0, 0.5);
            let model = board.build_model().expect("valid board");
            let device = coserve_model::devices::numa_rtx3080ti();
            let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
            let stream = RequestStream::generate(
                "prop", &board, &model, 40,
                SimSpan::from_millis(4), StreamOrder::Iid, seed,
            );
            let mut builder = SystemConfig::builder("prop").gpu_executors(gpus);
            if cpus > 0 {
                builder = builder.cpu_executors(cpus);
            }
            let mut config = builder
                .assign(if assign_da { AssignPolicy::DependencyAware } else { AssignPolicy::RoundRobin })
                .arrange(if arrange_grouped { ArrangePolicy::Grouped } else { ArrangePolicy::Fcfs })
                .eviction(match evict_sel {
                    0 => EvictionPolicy::DependencyAware,
                    1 => EvictionPolicy::Lru,
                    _ => EvictionPolicy::Fifo,
                })
                .build();
            if admit {
                config.admission = Some(crate::config::AdmissionControl::with_queue_capacity(4));
            }
            config.max_overtake = match overtake_sel {
                0 => None,
                1 => Some(0),
                _ => Some(4),
            };
            let engine = Engine::new(&device, &model, &perf, &config).expect("valid");
            let report = engine.run(&stream);
            prop_assert_eq!(
                report.completed + report.failed + report.dropped,
                report.submitted
            );
            if !admit {
                prop_assert_eq!(report.dropped, 0);
                prop_assert_eq!(report.admitted, report.submitted);
            }
            let exec_switches: u64 = report.executors.iter().map(|e| e.switches).sum();
            prop_assert_eq!(exec_switches, report.expert_switches());
            let again = engine.run(&stream);
            prop_assert_eq!(report, again);
        }

        /// Calendar equivalence: the multi-lane calendar and the
        /// single-heap reference calendar drive whole sessions to
        /// bit-identical reports, completions and traces — across
        /// random workloads, executor mixes, fault plans and arbitrary
        /// `pump_until` chunkings.
        #[test]
        fn lane_calendar_matches_reference_calendar(
            seed in 0u64..1_000,
            gpus in 1usize..3,
            grouped in any::<bool>(),
            faulty in any::<bool>(),
            chunks in proptest::collection::vec(1u64..300, 0..10),
        ) {
            let board = BoardSpec::synthetic("prop", 12, 2, 1.2, 20.0, 0.5);
            let model = board.build_model().expect("valid board");
            let device = coserve_model::devices::numa_rtx3080ti();
            let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
            let stream = RequestStream::generate(
                "prop", &board, &model, 40,
                SimSpan::from_millis(4), StreamOrder::Iid, seed,
            );
            let config = SystemConfig::builder("prop")
                .gpu_executors(gpus)
                .arrange(if grouped { ArrangePolicy::Grouped } else { ArrangePolicy::Fcfs })
                .build();
            let engine = Engine::new(&device, &model, &perf, &config).expect("valid");

            let drive = |reference: bool| {
                let mut session = engine.session(stream.name());
                if reference {
                    session.use_reference_calendar();
                }
                session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
                if faulty {
                    let plan = coserve_faults::FaultPlan::seeded(seed ^ 0xfa17)
                        .with_expert_load(
                            0.1, 0.1, 2.0, coserve_faults::FaultWindow::ALWAYS,
                        );
                    session.set_faults(
                        plan,
                        coserve_faults::RetryPolicy::retries(2, SimSpan::from_millis(1)),
                    );
                }
                for job in stream.jobs() {
                    session.submit(job.arrival, &job.stages).expect("stream fits model");
                }
                let mut watermark = SimTime::ZERO;
                for &delta_ms in &chunks {
                    watermark += SimSpan::from_millis(delta_ms);
                    session.pump_until(watermark);
                }
                session.pump();
                let completions = session.drain_completions();
                let events = session.tracer_mut().drain();
                (session.into_report(), completions, events)
            };
            let (lane_report, lane_completions, lane_events) = drive(false);
            let (ref_report, ref_completions, ref_events) = drive(true);
            prop_assert_eq!(lane_report, ref_report);
            prop_assert_eq!(lane_completions, ref_completions);
            prop_assert_eq!(&lane_events, &ref_events);
            prop_assert_eq!(
                coserve_trace::chrome_trace_json(&lane_events),
                coserve_trace::chrome_trace_json(&ref_events)
            );
        }

        /// Observability: live snapshots taken between arbitrary
        /// `pump_until` chunks are monotone (ledgers only grow), and
        /// the final snapshot is exactly the consumed report's.
        #[test]
        fn snapshot_is_monotone_across_pump_chunks(
            seed in 0u64..1_000,
            chunks in proptest::collection::vec(1u64..400, 1..12),
        ) {
            let board = BoardSpec::synthetic("prop", 12, 2, 1.2, 20.0, 0.5);
            let model = board.build_model().expect("valid board");
            let device = coserve_model::devices::numa_rtx3080ti();
            let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
            let stream = RequestStream::generate(
                "prop", &board, &model, 40,
                SimSpan::from_millis(4), StreamOrder::Iid, seed,
            );
            let config = SystemConfig::builder("prop").gpu_executors(2).build();
            let engine = Engine::new(&device, &model, &perf, &config).expect("valid");

            let mut session = engine.session(stream.name());
            for job in stream.jobs() {
                session.submit(job.arrival, &job.stages).expect("stream fits model");
            }
            let mut prev = session.snapshot();
            let mut watermark = SimTime::ZERO;
            for delta_ms in chunks {
                watermark += SimSpan::from_millis(delta_ms);
                session.pump_until(watermark);
                let cur = session.snapshot();
                prop_assert_eq!(cur.submitted, prev.submitted);
                prop_assert!(cur.completed >= prev.completed);
                prop_assert!(cur.failed >= prev.failed);
                prop_assert!(cur.admitted >= prev.admitted);
                prop_assert!(cur.dropped >= prev.dropped);
                prop_assert!(cur.stages_executed >= prev.stages_executed);
                prop_assert!(cur.makespan >= prev.makespan);
                prop_assert!(cur.expert_switches >= prev.expert_switches);
                prop_assert!(cur.switch_time_total >= prev.switch_time_total);
                prop_assert!(cur.exec_time_total >= prev.exec_time_total);
                // Nothing drains in this loop, so the backlog is the
                // full terminal ledger and only grows.
                prop_assert_eq!(
                    cur.completions_pending,
                    cur.completed + cur.failed + cur.dropped
                );
                prop_assert!(cur.completions_pending >= prev.completions_pending);
                let lat_count = |s: &RunSnapshot| s.latency.map_or(0, |l| l.count);
                prop_assert!(lat_count(&cur) >= lat_count(&prev));
                prev = cur;
            }
            session.pump();
            let _ = session.drain_completions();
            let last = session.snapshot();
            prop_assert_eq!(last.pending_events, 0);
            prop_assert_eq!(last.completions_pending, 0);
            let report = session.into_report();
            prop_assert_eq!(last, report.snapshot());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::StreamOrder;
    use coserve_workload::task::TaskSpec;

    fn setup(
        num_components: usize,
        requests: usize,
    ) -> (DeviceProfile, CoeModel, PerfMatrix, RequestStream) {
        let board = BoardSpec::synthetic("eng", num_components, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let stream = RequestStream::generate(
            "eng-task",
            &board,
            &model,
            requests,
            SimSpan::from_millis(4),
            StreamOrder::Iid,
            11,
        );
        (device, model, perf, stream)
    }

    fn coserve_config() -> SystemConfig {
        SystemConfig::builder("CoServe")
            .gpu_executors(2)
            .cpu_executors(1)
            .build()
    }

    #[test]
    fn engine_completes_every_job() {
        let (device, model, perf, stream) = setup(30, 200);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let report = engine.run(&stream);
        assert_eq!(report.submitted, 200);
        assert_eq!(report.completed, 200);
        assert_eq!(report.failed, 0);
        assert!(report.stages_executed >= 200);
        assert!(report.throughput_ips() > 0.0);
        assert!(report.makespan > SimSpan::ZERO);
        assert_eq!(report.job_latencies.len(), 200);
    }

    #[test]
    fn session_replay_matches_batch_run_bit_for_bit() {
        let (device, model, perf, stream) = setup(30, 200);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let batch = engine.run(&stream);
        // Incremental replay: submit jobs one by one in arrival order,
        // advancing the event loop up to the next arrival's watermark
        // between submissions — the live-server usage pattern.
        let mut session = engine.session(stream.name());
        let jobs = stream.jobs();
        for (i, job) in jobs.iter().enumerate() {
            session.submit(job.arrival, &job.stages).unwrap();
            if let Some(next) = jobs.get(i + 1) {
                session.pump_until(next.arrival);
            }
        }
        session.pump();
        let completions = session.drain_completions();
        assert_eq!(completions.len(), stream.len());
        assert!(completions
            .iter()
            .all(|c| c.status == CompletionStatus::Completed));
        let report = session.into_report();
        assert_eq!(batch, report);
    }

    #[test]
    fn traced_session_matches_untraced_and_attribution_partitions_latency() {
        let (device, model, perf, stream) = setup(30, 120);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let untraced = engine.run(&stream);

        let run_traced = || {
            let mut session = engine.session(stream.name());
            session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
            for job in stream.jobs() {
                session.submit(job.arrival, &job.stages).unwrap();
            }
            session.pump();
            let events = session.tracer_mut().drain();
            (session.into_report(), events)
        };
        let (report, events) = run_traced();
        assert_eq!(untraced, report, "tracing must not perturb results");

        // Counts line up with the report's aggregates.
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("arrived"), report.submitted);
        assert_eq!(count("completed"), report.completed);
        assert_eq!(count("stage-done"), report.stages_executed);
        assert_eq!(count("switch") as u64, report.expert_switches());
        assert!(count("preloaded") > 0, "residency snapshot on install");

        // Attribution: per stage index, the queue/switch/stall/exec
        // components sum to exactly the stage-latency ledger entries,
        // in ledger order.
        let mut sums: BTreeMap<u8, Vec<SimSpan>> = BTreeMap::new();
        for e in &events {
            if let TraceKind::StageDone {
                stage,
                queue,
                switch,
                stall,
                exec_span,
                ..
            } = e.kind
            {
                sums.entry(stage)
                    .or_default()
                    .push(queue + switch + stall + exec_span);
            }
        }
        assert_eq!(sums, report.stage_latencies);

        // Determinism: a second traced run reproduces the events and
        // the exported bytes exactly.
        let (report2, events2) = run_traced();
        assert_eq!(report, report2);
        assert_eq!(events, events2);
        assert_eq!(
            coserve_trace::chrome_trace_json(&events),
            coserve_trace::chrome_trace_json(&events2)
        );
    }

    #[test]
    fn trace_covers_drops_under_admission_control() {
        let (device, model, perf, stream) = setup(30, 300);
        let config = SystemConfig {
            admission: Some(crate::config::AdmissionControl::with_queue_capacity(2)),
            ..SystemConfig::builder("CoServe").gpu_executors(1).build()
        };
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let mut session = engine.session(stream.name());
        session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        session.pump();
        let events = session.tracer_mut().drain();
        let report = session.into_report();
        assert!(report.dropped > 0, "setup should overload the queue");
        let dropped = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Dropped { .. }))
            .count();
        assert_eq!(dropped, report.dropped);
    }

    #[test]
    fn threaded_session_submission_matches_serial_run() {
        use std::sync::Mutex;
        let (device, model, perf, stream) = setup(30, 150);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let serial = engine.run(&stream);
        let jobs = stream.jobs();
        for threads in [1usize, 2, 4] {
            // One lock guards both the claim cursor and the session, so
            // jobs are submitted in arrival order no matter which worker
            // wins the race — the determinism contract worker threads
            // rely on.
            let shared = Mutex::new((engine.session(stream.name()), 0usize));
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let mut guard = shared.lock().unwrap();
                        let i = guard.1;
                        if i >= jobs.len() {
                            break;
                        }
                        guard.1 += 1;
                        guard.0.submit(jobs[i].arrival, &jobs[i].stages).unwrap();
                    });
                }
            });
            let (mut session, submitted) = shared.into_inner().unwrap();
            assert_eq!(submitted, jobs.len());
            session.pump();
            let report = session.into_report();
            assert_eq!(serial, report, "divergence at {threads} threads");
        }
    }

    #[test]
    fn session_snapshot_tracks_live_progress() {
        let (device, model, perf, stream) = setup(30, 120);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let mut session = engine.session("live");
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        // Advance halfway through the arrival horizon.
        let mid = stream.jobs()[stream.len() / 2].arrival;
        session.pump_until(mid);
        let snap = session.snapshot();
        assert_eq!(snap.submitted, 120);
        assert!(snap.completed > 0, "no progress by mid-run");
        assert!(snap.completed < 120, "run finished too early");
        assert!(snap.pending_events > 0);
        // Every terminal record so far is still awaiting collection.
        assert_eq!(snap.completions_pending, snap.completed);
        let drained = session.drain_completions();
        assert_eq!(drained.len(), snap.completed);
        assert_eq!(session.snapshot().completions_pending, 0);
        session.pump();
        let end = session.snapshot();
        assert_eq!(end.completed, 120);
        assert_eq!(end.pending_events, 0);
        // The backlog is exactly the completions the mid-run drain
        // did not take.
        assert_eq!(end.completions_pending, 120 - drained.len());
        assert!(end.to_json().contains("\"completed\":120"));
        assert!(end.to_json().contains("\"completions_pending\":"));
        // Later drains only carry the new completions.
        assert_eq!(session.drain_completions().len(), 120 - drained.len());
        // The final snapshot (once fully drained) agrees with the
        // consumed report's own.
        let end = session.snapshot();
        assert_eq!(end.completions_pending, 0);
        let report = session.into_report();
        assert_eq!(report.snapshot(), end);
    }

    #[test]
    fn session_submit_validates_jobs() {
        let (device, model, perf, _) = setup(10, 1);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let mut session = engine.session("validate");
        assert_eq!(
            session.submit(SimTime::ZERO, &[]),
            Err(SubmitError::EmptyStages)
        );
        let bogus = ExpertId(model.num_experts() as u32);
        assert_eq!(
            session.submit(SimTime::ZERO, &[bogus]),
            Err(SubmitError::UnknownExpert(bogus))
        );
        let long = vec![ExpertId(0); 300];
        assert_eq!(
            session.submit(SimTime::ZERO, &long),
            Err(SubmitError::TooManyStages(300))
        );
        assert_eq!(session.snapshot().submitted, 0);
        assert!(session.is_idle());
        // A valid submission still works afterwards.
        let id = session.submit(SimTime::ZERO, &[ExpertId(0)]).unwrap();
        assert_eq!(id, 0);
        session.pump();
        let done = session.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Completed);
    }

    #[test]
    fn engine_is_deterministic() {
        let (device, model, perf, stream) = setup(30, 150);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let a = engine.run(&stream);
        let b = engine.run(&stream);
        assert_eq!(a, b);
    }

    #[test]
    fn preload_fills_pools_by_usage() {
        let (device, model, perf, stream) = setup(30, 1);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let layout = engine.memory_layout();
        // Pools have real capacity.
        assert!(layout
            .executors
            .iter()
            .all(|m| m.pool_capacity > Bytes::ZERO));
        assert!(
            layout.cache > Bytes::ZERO,
            "NUMA device has a staging cache"
        );
        let report = engine.run(&stream);
        // Peak usage shows the preload happened.
        for e in &report.executors {
            assert!(
                e.pool_peak > Bytes::ZERO,
                "executor {} never held experts",
                e.index
            );
        }
    }

    #[test]
    fn grouping_reduces_switches_vs_fcfs() {
        let (device, model, perf, stream) = setup(40, 400);
        let grouped = SystemConfig::builder("grouped").gpu_executors(2).build();
        let fcfs = SystemConfig::builder("fcfs")
            .gpu_executors(2)
            .assign(AssignPolicy::RoundRobin)
            .arrange(ArrangePolicy::Fcfs)
            .eviction(crate::evict::EvictionPolicy::Lru)
            .build();
        let g = Engine::new(&device, &model, &perf, &grouped)
            .unwrap()
            .run(&stream);
        let f = Engine::new(&device, &model, &perf, &fcfs)
            .unwrap()
            .run(&stream);
        assert!(
            g.expert_switches() < f.expert_switches(),
            "grouped {} vs fcfs {}",
            g.expert_switches(),
            f.expert_switches()
        );
        assert!(g.throughput_ips() > f.throughput_ips());
    }

    #[test]
    fn oversized_expert_fails_gracefully() {
        let (device, model, perf, stream) = setup(10, 20);
        // One GPU executor with a zero-expert pool target: no ResNet fits.
        let config = SystemConfig {
            gpu_resident_experts: Some(0),
            ..SystemConfig::builder("tiny").gpu_executors(1).build()
        };
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let report = engine.run(&stream);
        // Nothing fits in a zero-expert pool: every job fails, none hang.
        assert_eq!(report.completed + report.failed, 20);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn missing_kernel_is_a_construction_error() {
        let (_, model, perf, _) = setup(10, 10);
        let bare = DeviceProfile::numa_rtx3080ti(); // no kernels installed
        let config = coserve_config();
        let err = Engine::new(&bare, &model, &perf, &config).unwrap_err();
        assert!(matches!(err, EngineError::MissingKernel(_, _)));
        assert!(err.to_string().contains("no kernel"));
    }

    #[test]
    fn empty_executor_list_is_a_construction_error() {
        // The fields are public, so a built config can still lose its
        // executors: the engine must refuse it, not panic on the first
        // request.
        let (device, model, perf, _) = setup(10, 10);
        let mut config = coserve_config();
        config.executors.clear();
        let err = Engine::new(&device, &model, &perf, &config).unwrap_err();
        assert_eq!(err, EngineError::NoExecutors);
        assert!(err.to_string().contains("no executors"));
    }

    #[test]
    fn perf_mismatch_is_a_construction_error() {
        let (device, model, _, _) = setup(10, 10);
        let wrong = PerfMatrix::new(std::collections::BTreeMap::new(), vec![0.1], vec![1.0]);
        let config = coserve_config();
        let err = Engine::new(&device, &model, &wrong, &config).unwrap_err();
        assert!(matches!(err, EngineError::PerfModelMismatch { .. }));
    }

    #[test]
    fn switch_events_record_sources() {
        let (device, model, perf, stream) = setup(60, 500);
        let config = coserve_config();
        let report = Engine::new(&device, &model, &perf, &config)
            .unwrap()
            .run(&stream);
        // With 60 ResNet experts and small pools there must be switching.
        assert!(report.expert_switches() > 0);
        for ev in &report.switch_events {
            assert!(ev.source == MemoryTier::Ssd || ev.source == MemoryTier::Cpu);
            assert!(ev.executor < config.executors.len());
        }
        // Makespan covers the last switch.
        let last = report.switch_events.last().unwrap();
        assert!(last.at <= SimTime::ZERO + report.makespan);
    }

    #[test]
    fn memory_layout_respects_uma_unified_pool() {
        let board = BoardSpec::synthetic("uma", 20, 3, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::uma_apple_m2();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let config = SystemConfig::builder("uma")
            .gpu_executors(2)
            .cpu_executors(1)
            .build();
        let layout = plan_memory(&device, &model, &perf, &config);
        assert_eq!(layout.cache, Bytes::ZERO, "UMA has no staging cache");
        let total: Bytes = layout
            .executors
            .iter()
            .map(|m| m.pool_capacity + m.workspace)
            .sum();
        assert!(total <= device.gpu_usable());
    }

    #[test]
    fn cpu_pool_follows_limited_compute_rule() {
        let (device, model, perf, _) = setup(20, 1);
        let config = SystemConfig::builder("rule")
            .gpu_executors(1)
            .cpu_executors(1)
            .build();
        let layout = plan_memory(&device, &model, &perf, &config);
        // §4.4: the CPU workspace equals exactly the maximum-batch
        // inference footprint; the pool takes the rest.
        let reserve = perf
            .entries()
            .filter(|&(_, p, _)| p == ProcessorKind::Cpu)
            .map(|(_, _, e)| e.workspace + e.per_item * u64::from(e.max_batch))
            .max()
            .unwrap();
        assert_eq!(layout.executors[1].workspace, reserve);
    }

    #[test]
    fn cpu_only_system_serves_everything() {
        let (device, model, perf, stream) = setup(12, 40);
        let config = SystemConfig::builder("cpu-only").cpu_executors(2).build();
        let report = Engine::new(&device, &model, &perf, &config)
            .unwrap()
            .run(&stream);
        assert_eq!(report.completed, 40);
        assert!(report
            .executors
            .iter()
            .all(|e| e.processor == ProcessorKind::Cpu));
        // GPU channels untouched.
        let gpu = report
            .channels
            .iter()
            .find(|c| c.name == "gpu-compute")
            .unwrap();
        assert_eq!(gpu.reservations, 0);
    }

    /// Satellite regression: when one pool is full (or too small), the
    /// round-robin preload cursor must keep distributing the remaining
    /// experts evenly across the other pools instead of piling them
    /// onto one neighbour.
    #[test]
    fn preload_round_robin_stays_even_when_one_pool_is_full() {
        let (_, model, perf, _) = setup(12, 1);
        let pool = |capacity| ModelPool::new(capacity, EvictionPolicy::Lru, &model, &perf);
        let expert_size = Bytes::mib(10);
        let mut pools = [
            pool(Bytes::mib(10)), // fits exactly one
            pool(Bytes::gib(1)),
            pool(Bytes::gib(1)),
        ];
        let order: Vec<ExpertId> = (0..11).map(ExpertId).collect();
        preload_round_robin(&mut pools, &order, |_| expert_size);
        let [tiny, a, b] = &pools;
        assert_eq!(tiny.len(), 1, "tiny pool takes exactly one expert");
        assert_eq!(a.len() + b.len(), 10, "everything else is placed");
        assert!(
            a.len().abs_diff(b.len()) <= 1,
            "skewed distribution: {} vs {}",
            a.len(),
            b.len()
        );
    }

    #[test]
    fn preload_round_robin_skips_oversized_experts_per_pool() {
        let (_, model, perf, _) = setup(12, 1);
        let pool = |capacity| ModelPool::new(capacity, EvictionPolicy::Fifo, &model, &perf);
        let mut pools = [pool(Bytes::mib(5)), pool(Bytes::mib(100))];
        let order: Vec<ExpertId> = (0..4).map(ExpertId).collect();
        // Every expert is 10 MiB: none ever fits the small pool.
        preload_round_robin(&mut pools, &order, |_| Bytes::mib(10));
        let [small, big] = &pools;
        assert_eq!(small.len(), 0);
        assert_eq!(big.len(), 4);
        // Empty pool list is a no-op, not a panic.
        preload_round_robin(&mut [], &order, |_| Bytes::mib(10));
    }

    #[test]
    fn preload_order_override_changes_residency() {
        // Enough experts that the pools cannot hold everyone: now the
        // preload priority decides who starts resident.
        let (device, model, perf, stream) = setup(80, 300);
        let usage = perf.experts_by_usage().to_vec();
        // Preload the usage order *reversed*: cold experts first.
        let reversed: Vec<ExpertId> = usage.iter().rev().copied().collect();
        let default_cfg = SystemConfig::builder("same").gpu_executors(2).build();
        let reversed_cfg = SystemConfig {
            preload_order: Some(reversed),
            ..default_cfg.clone()
        };
        let d = Engine::new(&device, &model, &perf, &default_cfg)
            .unwrap()
            .run(&stream);
        let r = Engine::new(&device, &model, &perf, &reversed_cfg)
            .unwrap()
            .run(&stream);
        assert!(
            r.expert_switches() > d.expert_switches(),
            "cold-first preload must switch more: {} vs {}",
            r.expert_switches(),
            d.expert_switches()
        );
        // An explicit usage order reproduces the default bit for bit.
        let explicit_cfg = SystemConfig {
            preload_order: Some(usage),
            ..default_cfg.clone()
        };
        let e = Engine::new(&device, &model, &perf, &explicit_cfg)
            .unwrap()
            .run(&stream);
        assert_eq!(d, e);
    }

    #[test]
    fn preload_order_outside_model_is_a_construction_error() {
        let (device, model, perf, _) = setup(10, 10);
        let config = SystemConfig {
            preload_order: Some(vec![ExpertId(10_000)]),
            ..SystemConfig::builder("bad").gpu_executors(1).build()
        };
        let err = Engine::new(&device, &model, &perf, &config).unwrap_err();
        assert!(matches!(err, EngineError::UnknownExpert(_)));
        assert!(err.to_string().contains("preload order"));
    }

    #[test]
    fn admission_drops_at_overload_and_conserves_jobs() {
        let (device, model, perf, stream) = setup(30, 300);
        let config = SystemConfig {
            admission: Some(crate::config::AdmissionControl::with_queue_capacity(2)),
            max_overtake: Some(8),
            ..SystemConfig::builder("online").gpu_executors(1).build()
        };
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let report = engine.run(&stream);
        assert!(report.dropped > 0, "capacity-2 queue must shed load");
        assert_eq!(
            report.completed + report.failed + report.dropped,
            report.submitted
        );
        assert!(report.admitted >= report.completed);
        assert!(report.admitted < report.submitted);
        assert!(report.drop_rate() > 0.0);
        // Determinism holds with admission control on.
        assert_eq!(report, engine.run(&stream));
    }

    #[test]
    fn evacuate_returns_open_jobs_and_a_conserving_report() {
        // Cut a loaded session mid-stream: some jobs have ended, some
        // are admitted and queued, the rest never reached the scheduler.
        let (device, model, perf, stream) = setup(30, 300);
        let config = SystemConfig {
            admission: Some(crate::config::AdmissionControl::with_queue_capacity(8)),
            max_overtake: Some(8),
            ..SystemConfig::builder("online").gpu_executors(1).build()
        };
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let mut session = engine.session("evacuated");
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        let cut = stream.jobs()[150].arrival;
        session.pump_until(cut);
        assert!(session.predicted_backlog(cut) > SimSpan::ZERO);
        let ended: Vec<u32> = session.drain_completions().iter().map(|c| c.job).collect();
        let before = session.counters();
        let (report, open) = session.evacuate();

        assert!(open.windows(2).all(|w| w[0] < w[1]), "submission order");
        let mut all: Vec<u32> = ended.iter().chain(&open).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<u32>>(), "ended + open = all");
        assert_eq!(report.submitted, 300 - open.len());
        assert_eq!(
            report.completed + report.failed + report.dropped,
            report.submitted
        );
        // Admitted-but-unfinished jobs leave the admitted count; jobs
        // that never reached admission were never in it.
        let open_admitted = before.admitted - report.admitted;
        assert!(open_admitted > 0 && open_admitted < open.len());
        assert!(report.admitted >= report.completed + report.failed);
        assert_eq!(report.dropped, before.dropped);
    }

    #[test]
    fn service_factor_stretches_compute() {
        let (device, model, perf, stream) = setup(20, 80);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let run = |factor: f64| {
            let mut session = engine.session(stream.name());
            session.set_service_factor(factor);
            for job in stream.jobs() {
                session.submit(job.arrival, &job.stages).unwrap();
            }
            session.pump();
            assert!(session.is_idle());
            assert_eq!(session.predicted_backlog(session.now()), SimSpan::ZERO);
            session.into_report()
        };
        assert_eq!(run(1.0), engine.run(&stream), "1.0 is bit-identical");
        let (plain, slow) = (run(1.0), run(3.0));
        assert_eq!(slow.completed, plain.completed);
        assert!(slow.exec_time_total > plain.exec_time_total * 2);
        assert!(slow.makespan > plain.makespan);
    }

    #[test]
    fn admission_with_headroom_matches_closed_loop() {
        let (device, model, perf, stream) = setup(20, 100);
        let closed = SystemConfig::builder("same").gpu_executors(2).build();
        let open = SystemConfig {
            admission: Some(crate::config::AdmissionControl::with_queue_capacity(4096)),
            ..closed.clone()
        };
        let closed_r = Engine::new(&device, &model, &perf, &closed)
            .unwrap()
            .run(&stream);
        let open_r = Engine::new(&device, &model, &perf, &open)
            .unwrap()
            .run(&stream);
        assert_eq!(closed_r.dropped, 0);
        assert_eq!(open_r.dropped, 0);
        assert_eq!(open_r.admitted, open_r.submitted);
        assert_eq!(closed_r, open_r, "unused admission bound must not perturb");
    }

    #[test]
    fn stage_latency_ledgers_cover_executed_stages() {
        let (device, model, perf, stream) = setup(30, 200);
        let config = coserve_config();
        let report = Engine::new(&device, &model, &perf, &config)
            .unwrap()
            .run(&stream);
        // Every job runs stage 0; stage 1 runs for two-stage jobs only.
        assert_eq!(report.stage_latencies[&0].len(), 200);
        let total: usize = report.stage_latencies.values().map(Vec::len).sum();
        assert_eq!(total, report.stages_executed);
        for stage in report.stages() {
            let s = report.stage_summary(stage).unwrap();
            assert!(s.is_finite(), "stage {stage} summary not finite");
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        }
    }

    #[test]
    fn zero_overtake_bound_degrades_grouping_to_fcfs() {
        let (device, model, perf, stream) = setup(25, 150);
        let grouped0 = SystemConfig {
            max_overtake: Some(0),
            ..SystemConfig::builder("same").gpu_executors(2).build()
        };
        let fcfs = SystemConfig::builder("same")
            .gpu_executors(2)
            .arrange(ArrangePolicy::Fcfs)
            .build();
        let a = Engine::new(&device, &model, &perf, &grouped0)
            .unwrap()
            .run(&stream);
        let b = Engine::new(&device, &model, &perf, &fcfs)
            .unwrap()
            .run(&stream);
        assert_eq!(a, b, "bound 0 must order queues exactly like FCFS");
        // A generous bound still reduces switches vs FCFS.
        let bounded = SystemConfig {
            max_overtake: Some(32),
            ..grouped0.clone()
        };
        let c = Engine::new(&device, &model, &perf, &bounded)
            .unwrap()
            .run(&stream);
        assert!(c.expert_switches() <= b.expert_switches());
    }

    #[test]
    fn scheduling_cost_delays_but_does_not_block() {
        let (device, model, perf, stream) = setup(60, 300);
        let slow = SystemConfig::builder("slow-sched")
            .gpu_executors(2)
            .scheduling_cost(SimSpan::from_millis(8))
            .build();
        let fast = slow.pre_scheduled();
        let slow_r = Engine::new(&device, &model, &perf, &slow)
            .unwrap()
            .run(&stream);
        let fast_r = Engine::new(&device, &model, &perf, &fast)
            .unwrap()
            .run(&stream);
        assert_eq!(slow_r.completed, 300);
        // Scheduling latency is recorded.
        assert!(slow_r.sched_summary().unwrap().mean >= 8.0);
        assert!(fast_r.sched_summary().unwrap().mean < 1e-9);
        // The gap stays small: scheduling pipelines with inference.
        let gap =
            (fast_r.throughput_ips() - slow_r.throughput_ips()).abs() / fast_r.throughput_ips();
        assert!(gap < 0.2, "scheduling overhead gap {gap:.3}");
    }

    fn run_with_faults(plan: FaultPlan, retry: RetryPolicy) -> (RunReport, FaultLedger) {
        let (device, model, perf, stream) = setup(30, 150);
        let config = coserve_config();
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let mut session = engine.session(stream.name());
        session.set_faults(plan, retry);
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        session.pump();
        let ledger = *session.fault_ledger();
        (session.into_report(), ledger)
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical_to_no_plan() {
        let (baseline, no_faults) = {
            let (r, l) = run_with_faults(
                FaultPlan::disabled(),
                RetryPolicy::retries(4, SimSpan::from_millis(1)),
            );
            (r, l)
        };
        assert!(no_faults.is_empty(), "disabled plan must touch nothing");
        let (device, model, perf, stream) = setup(30, 150);
        let config = coserve_config();
        let plain = Engine::new(&device, &model, &perf, &config)
            .unwrap()
            .run(&stream);
        assert_eq!(plain, baseline, "disabled faults must not perturb results");
    }

    #[test]
    fn load_faults_recover_under_retry_and_partition_the_ledger() {
        let plan = coserve_faults::FaultPlan::seeded(7).with_expert_load(
            0.25,
            0.0,
            1.0,
            coserve_faults::FaultWindow::ALWAYS,
        );
        let (report, ledger) =
            run_with_faults(plan, RetryPolicy::retries(16, SimSpan::from_micros(50)));
        assert!(ledger.load_faults > 0, "fail rate 0.25 must inject");
        assert_eq!(
            ledger.load_faults,
            ledger.load_recovered + ledger.load_exhausted,
            "every fault is either recovered or exhausted"
        );
        assert_eq!(ledger.load_exhausted, 0, "16 retries absorb geometric runs");
        assert!(ledger.retries > 0);
        assert!(ledger.wasted_time > SimSpan::ZERO);
        assert!(ledger.backoff_time > SimSpan::ZERO);
        assert!(ledger.recovery_span().is_some());
        assert_eq!(
            report.completed, report.submitted,
            "recovery saves all jobs"
        );
    }

    #[test]
    fn load_faults_without_recovery_fail_jobs() {
        let plan = coserve_faults::FaultPlan::seeded(7).with_expert_load(
            0.25,
            0.0,
            1.0,
            coserve_faults::FaultWindow::ALWAYS,
        );
        let (report, ledger) = run_with_faults(plan, RetryPolicy::none());
        assert!(
            ledger.load_exhausted > 0,
            "no retries: first fault is fatal"
        );
        assert_eq!(ledger.load_recovered, 0);
        assert!(report.failed > 0);
        assert!(
            report.completed < report.submitted,
            "goodput must drop without recovery"
        );
    }

    #[test]
    fn slow_loads_dilate_the_run_and_are_accounted() {
        let plan = coserve_faults::FaultPlan::seeded(3).with_expert_load(
            0.0,
            0.9,
            6.0,
            coserve_faults::FaultWindow::ALWAYS,
        );
        let (slowed, ledger) = run_with_faults(plan, RetryPolicy::none());
        let (baseline, _) = run_with_faults(FaultPlan::disabled(), RetryPolicy::none());
        assert!(ledger.slow_loads > 0);
        assert!(ledger.degraded_time > SimSpan::ZERO);
        assert_eq!(slowed.completed, slowed.submitted, "slow loads still land");
        assert!(
            slowed.makespan > baseline.makespan,
            "6x tier dilation must stretch the run"
        );
    }

    /// What a session stepped dry by [`step_checking`] did.
    struct Stepped {
        /// Expert switches, summed over the executors.
        switches: u64,
        /// Trace-counted pool evictions.
        evicted: usize,
        /// Trace-counted staging-cache evictions.
        cache_evicted: usize,
        /// Batches started, summed over the executors.
        batches: u64,
        /// Runs the executors' queues retired at their fronts.
        runs_retired: u64,
    }

    /// Steps `session` dry one event at a time, calling `check` with
    /// the session and the event count after every event. Unlike the
    /// debug-only `debug_verify_aggregates` and `set_residency` checks,
    /// this also runs in release builds. Every stage that ran must have
    /// been traced as assigned, and every assigned stage must have run
    /// (these sessions fail no batch).
    fn step_checking(
        mut session: EngineSession<'_>,
        check: impl Fn(&EngineSession<'_>, usize),
    ) -> Stepped {
        session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
        let mut events = 0usize;
        while session.step() {
            events += 1;
            check(&session, events);
        }
        let switches = session.execs.iter().map(|e| e.switches).sum();
        let batches = session.execs.iter().map(|e| e.batches).sum();
        let runs_retired = session.execs.iter().map(|e| e.queue.runs_retired()).sum();
        let trace = session.tracer_mut().drain();
        let count = |pick: fn(&TraceKind) -> bool| trace.iter().filter(|ev| pick(&ev.kind)).count();
        let stages = |pick: fn(&TraceKind) -> Option<(u32, u8)>| -> Vec<(u32, u8)> {
            let mut stages: Vec<(u32, u8)> = trace.iter().filter_map(|ev| pick(&ev.kind)).collect();
            stages.sort_unstable();
            stages
        };
        let assigned = stages(|k| match *k {
            TraceKind::Assigned { job, stage, .. } => Some((job, stage)),
            _ => None,
        });
        let done = stages(|k| match *k {
            TraceKind::StageDone { job, stage, .. } => Some((job, stage)),
            _ => None,
        });
        assert!(!done.is_empty(), "no stage ran");
        assert!(
            assigned == done,
            "assigned stages are not the stages that ran"
        );
        Stepped {
            switches,
            evicted: count(|k| matches!(k, TraceKind::Evicted { .. })),
            cache_evicted: count(|k| matches!(k, TraceKind::CacheEvicted { .. })),
            batches,
            runs_retired,
        }
    }

    /// Task A1 on the NUMA device: the device, the task, its model and
    /// the model's profiled matrix.
    fn a1_on_numa() -> (DeviceProfile, TaskSpec, CoeModel, PerfMatrix) {
        let device = devices::numa_rtx3080ti();
        let task = TaskSpec::a1();
        let model = task.build_model().unwrap();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        (device, task, model, perf)
    }

    /// Submits every job of `stream` to a fresh session of `config` and
    /// steps it dry through [`step_checking`].
    fn step_stream(
        (device, model, perf): (&DeviceProfile, &CoeModel, &PerfMatrix),
        config: &SystemConfig,
        stream: &RequestStream,
        check: impl Fn(&EngineSession<'_>, usize),
    ) -> Stepped {
        let engine = Engine::new(device, model, perf, config).unwrap();
        let mut session = engine.session(stream.name());
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        step_checking(session, check)
    }

    /// Runs `check` after every event of three A1 sessions on the NUMA
    /// device whose pools thrash, and asserts they switched and evicted
    /// often enough to exercise it: two whose queues run deep, and one
    /// at `online-poisson`'s load, where most stages start directly on
    /// an idle executor.
    fn check_thrashing_sessions(check: impl Fn(&EngineSession<'_>, usize) + Copy) {
        use crate::presets;
        use coserve_workload::arrivals::ArrivalProcess;

        let (device, task, model, perf) = a1_on_numa();
        let setup = (&device, &model, &perf);
        let iid_poisson = |name: &str, rate: f64| {
            RequestStream::generate_open_loop(
                name,
                task.board(),
                &model,
                1_000,
                ArrivalProcess::poisson(rate),
                StreamOrder::Iid,
                7,
            )
        };

        // Online preset, iid Poisson A1 well above capacity: the pools
        // and the staging cache thrash, so entries are re-priced often.
        let online = presets::coserve_online(&device);
        let stream = iid_poisson("iid-overload", 40.0);
        let stepped = step_stream(setup, &online, &stream, check);
        assert!(stepped.switches > 100, "{} switches", stepped.switches);
        assert!(stepped.evicted > 100, "{} pool evictions", stepped.evicted);
        assert!(
            stepped.cache_evicted > 100,
            "{} staging-cache evictions",
            stepped.cache_evicted
        );

        // Offline preset, board-order A1 at the paper's 4 ms interval:
        // deep queues hold many distinct experts per executor.
        let stream = task.sample(400).stream(&model);
        let config = presets::coserve(&device);
        let stepped = step_stream(setup, &config, &stream, check);
        assert!(stepped.switches > 100, "{} switches", stepped.switches);
        assert!(stepped.evicted > 100, "{} pool evictions", stepped.evicted);

        // Online preset at `online-poisson`'s 4 req/s: queues stay
        // shallow and the pools still thrash. A batch popped off a
        // queue mostly empties, and so retires, a run; a batch started
        // directly retires none. Fewer runs retired than half the
        // batches means most stages started directly.
        let stream = iid_poisson("iid-online", 4.0);
        let stepped = step_stream(setup, &online, &stream, check);
        assert!(stepped.switches > 100, "{} switches", stepped.switches);
        assert!(stepped.evicted > 100, "{} pool evictions", stepped.evicted);
        assert!(
            stepped.runs_retired * 2 < stepped.batches,
            "{} of {} batches retired a queue run",
            stepped.runs_retired,
            stepped.batches
        );
    }

    /// Each executor's cached `work_exec`, `switch_total` and
    /// `switch_spans` entries equal a from-scratch recompute after
    /// every event.
    #[test]
    fn switch_aggregates_stay_exact_after_every_event() {
        check_thrashing_sessions(|session, events| {
            for (i, exec) in session.execs.iter().enumerate() {
                let (work, switch) = session.recompute_aggregates(i);
                assert_eq!(exec.work_exec, work, "executor {i}, event {events}");
                assert_eq!(exec.switch_total, switch, "executor {i}, event {events}");
                let queued: BTreeSet<ExpertId> = exec.queue.runs_iter().map(|(e, _)| e).collect();
                assert!(
                    exec.switch_spans.iter().map(|&(e, _)| e).eq(queued),
                    "executor {i}, event {events}: entries are not the queued experts"
                );
                for &(e, span) in &exec.switch_spans {
                    assert_eq!(span, session.predicted_switch(i, e), "{e} on executor {i}");
                }
            }
        });
    }

    /// The filled slots of a span memo, as `(count, price)`.
    fn memo_slots(memo: &SpanMemo) -> impl Iterator<Item = (u32, SimSpan)> + '_ {
        (1u32..)
            .zip(&memo.0)
            .filter(|&(_, &span)| span != SpanMemo::UNPRICED)
            .map(|(count, &span)| (count, span))
    }

    /// Each executor's assignment-row delta equals the perf-matrix
    /// oracle `predict_delta` for every queued expert and a sample of
    /// unqueued ones, and every memoized price equals a fresh
    /// computation, after every event: run prices of any length, kernel
    /// latencies, load stages and demotion spans.
    #[test]
    fn assignment_rows_and_span_memos_stay_exact_after_every_event() {
        let longest_run = std::cell::Cell::new(0usize);
        let loads = std::cell::Cell::new(0usize);
        let demotions = std::cell::Cell::new(0usize);
        let (longest_run, loads, demotions) = (&longest_run, &loads, &demotions);
        check_thrashing_sessions(|session, events| {
            let sampled = (0..session.engine.model.num_experts())
                .step_by(29)
                .map(|i| ExpertId(i as u32));
            for (i, exec) in session.execs.iter().enumerate() {
                let queued = exec.queue.runs_iter().map(|(e, _)| e);
                for expert in queued.chain(sampled.clone()) {
                    let row = session.assign_rows(expert)[i];
                    assert_eq!(
                        row.delta(exec, expert, session.cached(expert)),
                        session.predict_delta(i, expert),
                        "{expert} on executor {i}, event {events}"
                    );
                }
            }
            let device = session.engine.device;
            let executors = session.perf_cache.chunks(session.num_arch_slots);
            for (exec, entries) in session.execs.iter().zip(executors) {
                for entry in entries {
                    for (n, span) in memo_slots(&entry.run_spans) {
                        assert_eq!(span, entry.price_run(n), "run of {n}, event {events}");
                    }
                    longest_run.set(longest_run.get().max(entry.run_spans.0.len()));
                    for (n, span) in memo_slots(&entry.kernel_spans) {
                        let fresh = entry.kernel.latency(n);
                        assert_eq!(span, fresh, "batch of {n}, event {events}");
                    }
                    for (cached, memo) in [(false, entry.load_miss), (true, entry.load_hit)] {
                        let Some(stages) = memo else { continue };
                        let fresh = load_route(exec.processor, cached)
                            .map(|r| device.transfer_stages(entry.weights, r));
                        assert_eq!(stages, fresh, "load (cached: {cached}), event {events}");
                        loads.set(loads.get() + 1);
                    }
                }
            }
            for (entry, memo) in session.perf_cache.iter().zip(&session.demotions) {
                let Some(span) = *memo else { continue };
                let fresh = device.transfer_duration(entry.weights, TransferRoute::GpuToCpu);
                assert_eq!(span, fresh, "demotion, event {events}");
                demotions.set(demotions.get() + 1);
            }
        });
        assert!(
            longest_run.get() > 8,
            "runs of at most {} priced",
            longest_run.get()
        );
        assert!(loads.get() > 0, "no load stages memoized");
        assert!(demotions.get() > 0, "no demotion span memoized");
    }

    /// Each event kind survives packing into one calendar word with its
    /// fields at their extremes.
    #[test]
    fn packed_events_round_trip_at_the_extremes() {
        for ev in [
            Ev::Arrive { job: 0, stage: 0 },
            Ev::Arrive {
                job: u32::MAX,
                stage: u8::MAX,
            },
            Ev::Sched { job: 0, stage: 0 },
            Ev::Sched {
                job: u32::MAX,
                stage: u8::MAX,
            },
            Ev::Leg { exec: 0 },
            Ev::Leg { exec: u32::MAX },
        ] {
            assert_eq!(Ev::unpack(ev.pack()), ev);
        }
    }

    /// Every pool's kept victim order equals a from-scratch rebuild
    /// after every event: the executor pools' orphan and rank orders
    /// and the staging cache's LRU list under CoServe, and the executor
    /// pools' LRU lists under Samba-CoE (one GPU executor) and FIFO
    /// lists under CoServe None (round-robin assignment).
    #[test]
    fn eviction_orders_stay_exact_after_every_event() {
        let check = |session: &EngineSession<'_>, events| {
            let sites = (0..session.execs.len())
                .map(Site::Pool)
                .chain([Site::Cache]);
            for site in sites {
                assert!(session.order_is_exact(site), "{site:?}, event {events}");
            }
        };
        check_thrashing_sessions(check);

        let (device, task, model, perf) = a1_on_numa();
        let stream = task.sample(400).stream(&model);
        let samba = SystemConfig::builder("Samba-CoE")
            .assign(AssignPolicy::RoundRobin)
            .arrange(ArrangePolicy::Fcfs)
            .eviction(EvictionPolicy::Lru)
            .gpu_executors(1)
            .build();
        let none = crate::presets::coserve_none(&device);
        for config in [samba, none] {
            let setup = (&device, &model, &perf);
            let evicted = step_stream(setup, &config, &stream, check).evicted;
            assert!(evicted > 100, "{}: {evicted} pool evictions", config.name);
        }
    }
}
