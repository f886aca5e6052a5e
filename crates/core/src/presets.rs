//! Named CoServe configurations from the paper's evaluation (§5).
//!
//! * **CoServe** — all optimizations on, casual executor counts.
//! * **CoServe Casual** — "a casually selected memory allocation and
//!   number of executors": 75 % of GPU memory for experts, three GPU
//!   executors on NUMA (two on UMA), one CPU executor.
//! * **CoServe Best** — produced by [`crate::autotune`], not here.
//! * Ablations (§5.3): **CoServe None** (FIFO everything, even
//!   distribution), **CoServe EM** (+ dependency-aware expert
//!   management), **CoServe EM+RA** (+ request arranging); the full
//!   system adds request assigning.

use coserve_sim::device::{DeviceProfile, MemoryArch};
use coserve_sim::time::SimSpan;

use crate::config::{ArrangePolicy, AssignPolicy, SystemConfig};
use crate::evict::EvictionPolicy;

/// The measured per-request scheduling latency the paper reports in
/// Figure 19 (8.3 ms on the NUMA box, 2.3 ms on the UMA box).
#[must_use]
pub fn scheduling_cost(device: &DeviceProfile) -> SimSpan {
    match device.memory_arch() {
        MemoryArch::Numa => SimSpan::from_micros(8_300),
        MemoryArch::Uma => SimSpan::from_micros(2_300),
    }
}

/// The casual executor counts: 3 GPU + 1 CPU on NUMA, 2 GPU + 1 CPU on
/// UMA (§5.2).
#[must_use]
pub fn casual_executors(device: &DeviceProfile) -> (usize, usize) {
    match device.memory_arch() {
        MemoryArch::Numa => (3, 1),
        MemoryArch::Uma => (2, 1),
    }
}

fn base(device: &DeviceProfile, name: &str, gpus: usize, cpus: usize) -> SystemConfig {
    SystemConfig::builder(name)
        .gpu_executors(gpus)
        .cpu_executors(cpus)
        .scheduling_cost(scheduling_cost(device))
        .build()
}

/// The fully optimized CoServe with casual executor counts.
#[must_use]
pub fn coserve(device: &DeviceProfile) -> SystemConfig {
    let (g, c) = casual_executors(device);
    base(device, "CoServe", g, c)
}

/// CoServe with explicit executor counts and an optional window-search
/// resident-expert target — the shape `autotune` fills in for
/// "CoServe Best".
#[must_use]
pub fn coserve_with(
    device: &DeviceProfile,
    name: &str,
    gpus: usize,
    cpus: usize,
    gpu_resident_experts: Option<usize>,
) -> SystemConfig {
    let mut config = base(device, name, gpus, cpus);
    config.gpu_resident_experts = gpu_resident_experts;
    config
}

/// "CoServe Casual": intuitive settings without offline search — no
/// resident-expert target, so the engine gives 75 % of each GPU
/// executor's memory to expert loading — and casual executor counts
/// (§5.2).
#[must_use]
pub fn coserve_casual(device: &DeviceProfile) -> SystemConfig {
    let (g, c) = casual_executors(device);
    base(device, "CoServe Casual", g, c)
}

/// Ablation baseline "CoServe None": FIFO expert replacement, FIFO
/// request execution, requests distributed evenly across executors
/// (§5.3).
#[must_use]
pub fn coserve_none(device: &DeviceProfile) -> SystemConfig {
    let (g, c) = casual_executors(device);
    let mut config = base(device, "CoServe None", g, c);
    config.assign = AssignPolicy::RoundRobin;
    config.arrange = ArrangePolicy::Fcfs;
    config.eviction = EvictionPolicy::Fifo;
    config
}

/// Ablation "CoServe EM": adds dependency-aware expert management.
#[must_use]
pub fn coserve_em(device: &DeviceProfile) -> SystemConfig {
    let mut config = coserve_none(device).renamed("CoServe EM");
    config.eviction = EvictionPolicy::DependencyAware;
    config
}

/// Ablation "CoServe EM+RA": adds request arranging on top of EM.
#[must_use]
pub fn coserve_em_ra(device: &DeviceProfile) -> SystemConfig {
    let mut config = coserve_em(device).renamed("CoServe EM+RA");
    config.arrange = ArrangePolicy::Grouped;
    config
}

/// The default grouped-arranging starvation bound used by the online
/// preset: grouping may overtake a queued request at most this many
/// times before falling back to FCFS behind it.
pub const ONLINE_MAX_OVERTAKE: u32 = 16;

/// The fully optimized CoServe configured for open-loop online serving:
/// bounded executor queues with drop accounting (admission control) and
/// a grouping starvation bound, so tail latency stays finite at
/// overload.
#[must_use]
pub fn coserve_online(device: &DeviceProfile) -> SystemConfig {
    let mut config = coserve(device).renamed("CoServe Online");
    config.admission = Some(crate::config::AdmissionControl::default());
    config.max_overtake = Some(ONLINE_MAX_OVERTAKE);
    config
}

/// The four ablation steps in presentation order:
/// None → EM → EM+RA → full CoServe (§5.3, Figures 15–16).
#[must_use]
pub fn ablation_ladder(device: &DeviceProfile) -> Vec<SystemConfig> {
    vec![
        coserve_none(device),
        coserve_em(device),
        coserve_em_ra(device),
        coserve(device),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::devices;

    #[test]
    fn casual_counts_differ_by_device() {
        assert_eq!(casual_executors(&devices::numa_rtx3080ti()), (3, 1));
        assert_eq!(casual_executors(&devices::uma_apple_m2()), (2, 1));
    }

    #[test]
    fn scheduling_costs_match_figure19() {
        assert_eq!(
            scheduling_cost(&devices::numa_rtx3080ti()),
            SimSpan::from_micros(8_300)
        );
        assert_eq!(
            scheduling_cost(&devices::uma_apple_m2()),
            SimSpan::from_micros(2_300)
        );
    }

    #[test]
    fn full_coserve_uses_dependency_aware_policies() {
        let c = coserve(&devices::numa_rtx3080ti());
        assert_eq!(c.assign, AssignPolicy::DependencyAware);
        assert_eq!(c.arrange, ArrangePolicy::Grouped);
        assert_eq!(c.eviction, EvictionPolicy::DependencyAware);
        assert_eq!(c.gpu_executor_count(), 3);
        assert_eq!(c.cpu_executor_count(), 1);
    }

    #[test]
    fn online_preset_bounds_queues_and_overtakes() {
        let c = coserve_online(&devices::numa_rtx3080ti());
        assert_eq!(c.name, "CoServe Online");
        assert!(c.admission.is_some());
        assert_eq!(c.max_overtake, Some(ONLINE_MAX_OVERTAKE));
        // The underlying policies stay fully CoServe.
        assert_eq!(c.assign, AssignPolicy::DependencyAware);
        assert_eq!(c.arrange, ArrangePolicy::Grouped);
    }

    #[test]
    fn ablation_ladder_escalates_policies() {
        let device = devices::numa_rtx3080ti();
        let ladder = ablation_ladder(&device);
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].eviction, EvictionPolicy::Fifo);
        assert_eq!(ladder[0].arrange, ArrangePolicy::Fcfs);
        assert_eq!(ladder[0].assign, AssignPolicy::RoundRobin);
        assert_eq!(ladder[1].eviction, EvictionPolicy::DependencyAware);
        assert_eq!(ladder[1].arrange, ArrangePolicy::Fcfs);
        assert_eq!(ladder[2].arrange, ArrangePolicy::Grouped);
        assert_eq!(ladder[2].assign, AssignPolicy::RoundRobin);
        assert_eq!(ladder[3].assign, AssignPolicy::DependencyAware);
        // Same executor counts throughout: the ladder isolates policies.
        for c in &ladder {
            assert_eq!(c.executors.len(), 4);
        }
    }

    #[test]
    fn coserve_with_sets_window_target() {
        let c = coserve_with(&devices::numa_rtx3080ti(), "CoServe Best", 3, 1, Some(35));
        assert_eq!(c.gpu_resident_experts, Some(35));
        assert_eq!(c.name, "CoServe Best");
    }

    #[test]
    fn casual_has_no_window_target() {
        let c = coserve_casual(&devices::numa_rtx3080ti());
        assert_eq!(c.gpu_resident_experts, None);
    }
}
