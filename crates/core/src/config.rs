//! Serving-system configuration.
//!
//! One engine serves every system in the paper's evaluation; a
//! [`SystemConfig`] selects the policies: how requests are assigned to
//! executor queues, how queues are ordered, how experts are evicted,
//! how many experts stay GPU-resident, and how many executors run on
//! each processor (§4.5's "user-configurable parameters").

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

/// Full configuration of a serving system run: the policies, the
/// executors and the resident-expert target. Everything else about a
/// run — preloading, batching, scheduler workers, memory fractions — is
/// the same for every configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Display name ("CoServe Best", "Samba-CoE", …).
    pub name: String,
    /// The processor of each executor to create (§4.1's executor
    /// creator input). An engine rejects an empty list.
    pub executors: Vec<ProcessorKind>,
    /// Request → queue assignment policy.
    pub assign: AssignPolicy,
    /// Within-queue ordering policy.
    pub arrange: ArrangePolicy,
    /// Expert eviction policy.
    pub eviction: EvictionPolicy,
    /// Overrides the preload priority order. `None` — the default —
    /// preloads by descending usage probability (§4.1); a cluster
    /// placement planner supplies the node's placed experts first so
    /// each node specializes in its shard of the model. Experts must
    /// belong to the model (validated at engine construction).
    pub preload_order: Option<Vec<ExpertId>>,
    /// Per-request scheduling latency charged on the scheduler worker
    /// pool — Figure 19's "scheduling" cost.
    pub scheduling_cost: SimSpan,
    /// Total number of experts to keep resident across all GPU
    /// executors, as selected by the decay-window search (§4.4).
    /// `None` — the default — gives each GPU executor's expert pool a
    /// fixed fraction of its memory share instead (see
    /// [`plan_memory`](crate::engine::plan_memory)).
    pub gpu_resident_experts: Option<usize>,
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
                preload_order: None,
                scheduling_cost: SimSpan::from_micros(500),
                gpu_resident_experts: None,
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
            .filter(|&&p| p == ProcessorKind::Gpu)
            .count()
    }

    /// Number of CPU executors.
    #[must_use]
    pub fn cpu_executor_count(&self) -> usize {
        self.executors
            .iter()
            .filter(|&&p| p == ProcessorKind::Cpu)
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
        self.config
            .executors
            .extend(std::iter::repeat_n(ProcessorKind::Gpu, n));
        self
    }

    /// Adds `n` CPU executors.
    #[must_use]
    pub fn cpu_executors(mut self, n: usize) -> Self {
        self.config
            .executors
            .extend(std::iter::repeat_n(ProcessorKind::Cpu, n));
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

    /// Sets the per-request scheduling latency.
    #[must_use]
    pub fn scheduling_cost(mut self, cost: SimSpan) -> Self {
        self.config.scheduling_cost = cost;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when no executors were configured.
    #[must_use]
    pub fn build(self) -> SystemConfig {
        let c = self.config;
        assert!(
            !c.executors.is_empty(),
            "system needs at least one executor"
        );
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
            .scheduling_cost(SimSpan::from_micros(100))
            .build();
        assert_eq!(c.assign, AssignPolicy::RoundRobin);
        assert_eq!(c.eviction, EvictionPolicy::Lru);
    }

    #[test]
    fn resident_expert_override() {
        let c = SystemConfig::builder("best").gpu_executors(3).build();
        assert_eq!(c.gpu_resident_experts, None, "window search decides");
        // The config's copies keep a window-search result.
        let c = SystemConfig {
            gpu_resident_experts: Some(35),
            ..c
        };
        assert_eq!(c.pre_scheduled().gpu_resident_experts, Some(35));
    }

    #[test]
    fn closed_loop_defaults_have_no_admission() {
        let c = SystemConfig::builder("closed").gpu_executors(1).build();
        assert_eq!(c.admission, None);
        assert_eq!(c.max_overtake, None);
    }

    #[test]
    fn online_knobs_round_trip() {
        assert_eq!(AdmissionControl::with_queue_capacity(32).queue_capacity, 32);
        assert_eq!(AdmissionControl::default().queue_capacity, 64);
    }

    #[test]
    fn preload_order_round_trips() {
        let c = SystemConfig::builder("placed").gpu_executors(1).build();
        assert_eq!(c.preload_order, None, "default keeps §4.1 usage order");
        // Copies keep an explicit order (cluster nodes carry their
        // placement plan's).
        let order = vec![ExpertId(3), ExpertId(0), ExpertId(1)];
        let c = SystemConfig {
            preload_order: Some(order.clone()),
            ..c
        };
        assert_eq!(c.renamed("node-1").preload_order, Some(order));
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
}
