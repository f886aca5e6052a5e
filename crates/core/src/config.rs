//! Serving-system configuration.
//!
//! One engine serves every system in the paper's evaluation; a
//! [`SystemConfig`] selects the policies: how requests are assigned to
//! executor queues, how queues are ordered, how experts are evicted,
//! how memory is split between expert pools and inference workspace,
//! and how many executors run on each processor (§4.5's
//! "user-configurable parameters").

use coserve_model::expert::ExpertId;
use coserve_sim::device::ProcessorKind;
use coserve_sim::time::SimSpan;

use crate::evict::EvictionPolicy;

/// How incoming requests are assigned to executor queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignPolicy {
    /// CoServe's dependency-aware assignment (§4.2): minimize the total
    /// inference time across all executors, tie-broken by the smallest
    /// additional latency.
    DependencyAware,
    /// Round-robin distribution (Samba-CoE Parallel, CoServe-None).
    RoundRobin,
}

/// How requests are ordered within a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrangePolicy {
    /// CoServe's request arranging (§4.2): group behind the last queued
    /// request that uses the same expert.
    Grouped,
    /// Plain FCFS append (the baselines).
    Fcfs,
}

/// One inference executor to create at initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorSpec {
    /// The processor the executor runs on.
    pub processor: ProcessorKind,
}

/// Admission control for open-loop online serving: executor queues are
/// bounded and requests that would overflow them are dropped (and
/// accounted) instead of queued indefinitely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum pending requests per executor queue; a request assigned
    /// to a full queue is dropped.
    pub queue_capacity: usize,
}

impl AdmissionControl {
    /// Bounds each executor queue at `queue_capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero (no request could ever be
    /// admitted).
    #[must_use]
    pub fn with_queue_capacity(queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        AdmissionControl { queue_capacity }
    }
}

impl Default for AdmissionControl {
    /// A per-executor bound of 64 pending requests — deep enough to
    /// ride out bursts, shallow enough that queueing delay stays
    /// bounded at overload.
    fn default() -> Self {
        AdmissionControl { queue_capacity: 64 }
    }
}

/// How device memory is split between expert pools, inference
/// workspace, and (on NUMA devices) the CPU staging cache (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlan {
    /// Total number of experts to keep resident across all GPU
    /// executors, as selected by the decay-window search. `None` falls
    /// back to [`MemoryPlan::gpu_pool_fraction`].
    pub gpu_resident_experts: Option<usize>,
    /// Fraction of each GPU executor's share given to its expert pool
    /// when no resident-expert target is set (CoServe-Casual uses 0.75).
    pub gpu_pool_fraction: f64,
    /// Apply §4.4's limited-computation rule on CPU executors: reserve
    /// exactly the memory the maximum batch size needs for inference
    /// and give *all* remaining memory to the expert pool. When false,
    /// [`MemoryPlan::cpu_pool_fraction`] splits the share instead.
    pub cpu_max_batch_rule: bool,
    /// Fraction of each CPU executor's share given to its expert pool
    /// when [`MemoryPlan::cpu_max_batch_rule`] is off.
    pub cpu_pool_fraction: f64,
    /// Fraction of usable CPU memory reserved as the staging cache on
    /// NUMA devices (ignored on UMA). When the system has no CPU
    /// executors, all usable CPU memory becomes cache.
    pub cpu_cache_fraction: f64,
}

impl Default for MemoryPlan {
    fn default() -> Self {
        MemoryPlan {
            gpu_resident_experts: None,
            gpu_pool_fraction: 0.75,
            cpu_max_batch_rule: true,
            cpu_pool_fraction: 0.70,
            cpu_cache_fraction: 0.35,
        }
    }
}

/// Full configuration of a serving system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Display name ("CoServe Best", "Samba-CoE", …).
    pub name: String,
    /// The executors to create (§4.1's executor creator input).
    pub executors: Vec<ExecutorSpec>,
    /// Request → queue assignment policy.
    pub assign: AssignPolicy,
    /// Within-queue ordering policy.
    pub arrange: ArrangePolicy,
    /// Expert eviction policy.
    pub eviction: EvictionPolicy,
    /// Whether the expert initializer preloads pools by descending
    /// usage probability (§4.1).
    pub preload: bool,
    /// Overrides the preload priority order. `None` — the default —
    /// preloads by descending usage probability (§4.1); a cluster
    /// placement planner supplies the node's placed experts first so
    /// each node specializes in its shard of the model. Experts must
    /// belong to the model (validated at engine construction).
    pub preload_order: Option<Vec<ExpertId>>,
    /// Whether the batch splitter may batch same-expert requests; when
    /// false every batch has size 1.
    pub batching: bool,
    /// Per-request scheduling latency charged on the scheduler worker
    /// pool — Figure 19's "scheduling" cost.
    pub scheduling_cost: SimSpan,
    /// Scheduler worker threads. Scheduling runs on the host CPU in
    /// parallel with inference (§5.3); with the paper's 8.3 ms
    /// per-request cost and 4 ms arrival interval, two workers keep up
    /// with arrivals.
    pub scheduler_slots: usize,
    /// Memory split.
    pub memory: MemoryPlan,
    /// Open-loop admission control (bounded executor queues with drop
    /// accounting). `None` — the default — is the paper's closed-loop
    /// mode: queues grow without bound and nothing is dropped.
    pub admission: Option<AdmissionControl>,
    /// Starvation bound for grouped arranging: the maximum number of
    /// times a queued request may be overtaken by same-expert grouping
    /// before later arrivals append FCFS behind it. `None` — the
    /// default — reproduces the paper's unbounded §4.2 behaviour.
    pub max_overtake: Option<u32>,
}

impl SystemConfig {
    /// Starts a builder.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> SystemConfigBuilder {
        SystemConfigBuilder {
            config: SystemConfig {
                name: name.into(),
                executors: Vec::new(),
                assign: AssignPolicy::DependencyAware,
                arrange: ArrangePolicy::Grouped,
                eviction: EvictionPolicy::DependencyAware,
                preload: true,
                preload_order: None,
                batching: true,
                scheduling_cost: SimSpan::from_micros(500),
                scheduler_slots: 2,
                memory: MemoryPlan::default(),
                admission: None,
                max_overtake: None,
            },
        }
    }

    /// Number of GPU executors.
    #[must_use]
    pub fn gpu_executor_count(&self) -> usize {
        self.executors
            .iter()
            .filter(|e| e.processor == ProcessorKind::Gpu)
            .count()
    }

    /// Number of CPU executors.
    #[must_use]
    pub fn cpu_executor_count(&self) -> usize {
        self.executors
            .iter()
            .filter(|e| e.processor == ProcessorKind::Cpu)
            .count()
    }

    /// A copy with a different name.
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> SystemConfig {
        SystemConfig {
            name: name.into(),
            ..self.clone()
        }
    }

    /// A copy with zero scheduling cost — Figure 19's "pre-scheduled
    /// inference" setup.
    #[must_use]
    pub fn pre_scheduled(&self) -> SystemConfig {
        SystemConfig {
            name: format!("{} (pre-sched)", self.name),
            scheduling_cost: SimSpan::ZERO,
            ..self.clone()
        }
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    config: SystemConfig,
}

impl SystemConfigBuilder {
    /// Adds `n` GPU executors.
    #[must_use]
    pub fn gpu_executors(mut self, n: usize) -> Self {
        self.config.executors.extend(std::iter::repeat_n(
            ExecutorSpec {
                processor: ProcessorKind::Gpu,
            },
            n,
        ));
        self
    }

    /// Adds `n` CPU executors.
    #[must_use]
    pub fn cpu_executors(mut self, n: usize) -> Self {
        self.config.executors.extend(std::iter::repeat_n(
            ExecutorSpec {
                processor: ProcessorKind::Cpu,
            },
            n,
        ));
        self
    }

    /// Sets the assignment policy.
    #[must_use]
    pub fn assign(mut self, policy: AssignPolicy) -> Self {
        self.config.assign = policy;
        self
    }

    /// Sets the arranging policy.
    #[must_use]
    pub fn arrange(mut self, policy: ArrangePolicy) -> Self {
        self.config.arrange = policy;
        self
    }

    /// Sets the eviction policy.
    #[must_use]
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.config.eviction = policy;
        self
    }

    /// Enables or disables usage-ordered preloading.
    #[must_use]
    pub fn preload(mut self, on: bool) -> Self {
        self.config.preload = on;
        self
    }

    /// Overrides the preload priority order (cluster placement plans).
    #[must_use]
    pub fn preload_order(mut self, order: Vec<ExpertId>) -> Self {
        self.config.preload_order = Some(order);
        self
    }

    /// Enables or disables batching.
    #[must_use]
    pub fn batching(mut self, on: bool) -> Self {
        self.config.batching = on;
        self
    }

    /// Sets the per-request scheduling latency.
    #[must_use]
    pub fn scheduling_cost(mut self, cost: SimSpan) -> Self {
        self.config.scheduling_cost = cost;
        self
    }

    /// Sets the scheduler worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics at [`SystemConfigBuilder::build`] time if zero.
    #[must_use]
    pub fn scheduler_slots(mut self, slots: usize) -> Self {
        self.config.scheduler_slots = slots;
        self
    }

    /// Replaces the memory plan.
    #[must_use]
    pub fn memory(mut self, plan: MemoryPlan) -> Self {
        self.config.memory = plan;
        self
    }

    /// Enables open-loop admission control with bounded executor
    /// queues.
    #[must_use]
    pub fn admission(mut self, control: AdmissionControl) -> Self {
        self.config.admission = Some(control);
        self
    }

    /// Sets the grouped-arranging starvation bound (maximum overtakes
    /// per queued request).
    #[must_use]
    pub fn max_overtake(mut self, bound: u32) -> Self {
        self.config.max_overtake = Some(bound);
        self
    }

    /// Sets the window-search result: total GPU-resident experts.
    #[must_use]
    pub fn gpu_resident_experts(mut self, n: usize) -> Self {
        self.config.memory.gpu_resident_experts = Some(n);
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when no executors were configured or a memory fraction is
    /// outside `(0, 1)`.
    #[must_use]
    pub fn build(self) -> SystemConfig {
        let c = self.config;
        assert!(
            !c.executors.is_empty(),
            "system needs at least one executor"
        );
        assert!(c.scheduler_slots > 0, "scheduler needs at least one worker");
        for f in [
            c.memory.gpu_pool_fraction,
            c.memory.cpu_pool_fraction,
            c.memory.cpu_cache_fraction,
        ] {
            assert!((0.0..1.0).contains(&f), "memory fraction {f} outside [0,1)");
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_coserve_policies() {
        let c = SystemConfig::builder("CoServe")
            .gpu_executors(3)
            .cpu_executors(1)
            .build();
        assert_eq!(c.assign, AssignPolicy::DependencyAware);
        assert_eq!(c.arrange, ArrangePolicy::Grouped);
        assert_eq!(c.eviction, EvictionPolicy::DependencyAware);
        assert!(c.preload);
        assert!(c.batching);
        assert_eq!(c.gpu_executor_count(), 3);
        assert_eq!(c.cpu_executor_count(), 1);
        assert_eq!(c.executors.len(), 4);
    }

    #[test]
    fn builder_overrides() {
        let c = SystemConfig::builder("Samba-CoE")
            .gpu_executors(1)
            .assign(AssignPolicy::RoundRobin)
            .arrange(ArrangePolicy::Fcfs)
            .eviction(EvictionPolicy::Lru)
            .batching(false)
            .scheduling_cost(SimSpan::from_micros(100))
            .build();
        assert_eq!(c.assign, AssignPolicy::RoundRobin);
        assert_eq!(c.eviction, EvictionPolicy::Lru);
        assert!(!c.batching);
    }

    #[test]
    fn memory_plan_defaults_match_casual() {
        let plan = MemoryPlan::default();
        assert_eq!(plan.gpu_resident_experts, None);
        assert!((plan.gpu_pool_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn resident_expert_override() {
        let c = SystemConfig::builder("best")
            .gpu_executors(3)
            .gpu_resident_experts(35)
            .build();
        assert_eq!(c.memory.gpu_resident_experts, Some(35));
    }

    #[test]
    fn closed_loop_defaults_have_no_admission() {
        let c = SystemConfig::builder("closed").gpu_executors(1).build();
        assert_eq!(c.admission, None);
        assert_eq!(c.max_overtake, None);
    }

    #[test]
    fn online_knobs_round_trip() {
        let c = SystemConfig::builder("online")
            .gpu_executors(1)
            .admission(AdmissionControl::with_queue_capacity(32))
            .max_overtake(8)
            .build();
        assert_eq!(c.admission.unwrap().queue_capacity, 32);
        assert_eq!(c.max_overtake, Some(8));
        assert_eq!(AdmissionControl::default().queue_capacity, 64);
    }

    #[test]
    fn preload_order_round_trips() {
        let c = SystemConfig::builder("placed").gpu_executors(1).build();
        assert_eq!(c.preload_order, None, "default keeps §4.1 usage order");
        let order = vec![ExpertId(3), ExpertId(0), ExpertId(1)];
        let c = SystemConfig::builder("placed")
            .gpu_executors(1)
            .preload_order(order.clone())
            .build();
        assert_eq!(c.preload_order, Some(order));
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_queue_capacity_panics() {
        let _ = AdmissionControl::with_queue_capacity(0);
    }

    #[test]
    fn renamed_and_pre_scheduled_copies() {
        let c = SystemConfig::builder("x").gpu_executors(1).build();
        assert_eq!(c.renamed("y").name, "y");
        let p = c.pre_scheduled();
        assert_eq!(p.scheduling_cost, SimSpan::ZERO);
        assert!(p.name.contains("pre-sched"));
        // Original untouched.
        assert_eq!(c.scheduling_cost, SimSpan::from_micros(500));
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn empty_executors_panics() {
        let _ = SystemConfig::builder("none").build();
    }

    #[test]
    #[should_panic(expected = "memory fraction")]
    fn bad_fraction_panics() {
        let _ = SystemConfig::builder("bad")
            .gpu_executors(1)
            .memory(MemoryPlan {
                gpu_pool_fraction: 1.5,
                ..MemoryPlan::default()
            })
            .build();
    }
}
