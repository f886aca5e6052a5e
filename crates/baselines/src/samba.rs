//! The Samba-CoE baselines (§5.1).
//!
//! Samba-CoE is the state-of-the-art CoE serving system the paper
//! compares against. The paper defines three baseline variants built on
//! it; all three run on the shared `coserve-core` engine so that only
//! the policies differ:
//!
//! 1. **Samba-CoE** — first-come-first-served request handling, LRU
//!    expert replacement. On NUMA devices CPU memory acts as a cache
//!    tier (experts load from there when present, otherwise from SSD);
//!    on UMA devices experts load directly from SSD.
//! 2. **Samba-CoE FIFO** — the replacement strategy switched to FIFO.
//! 3. **Samba-CoE Parallel** — multiple parallel inference executors
//!    matched to CoServe's executor count, requests distributed
//!    round-robin.

use coserve_core::config::{ArrangePolicy, AssignPolicy, SystemConfig};
use coserve_core::evict::EvictionPolicy;
use coserve_core::presets::casual_executors;
use coserve_sim::device::DeviceProfile;
use coserve_sim::time::SimSpan;

/// Scheduling cost charged per request by the FCFS baselines — a queue
/// append, essentially free compared to CoServe's prediction work.
pub const FCFS_SCHEDULING_COST: SimSpan = SimSpan::from_micros(200);

fn samba_base(name: &str) -> coserve_core::config::SystemConfigBuilder {
    SystemConfig::builder(name)
        .assign(AssignPolicy::RoundRobin)
        .arrange(ArrangePolicy::Fcfs)
        .eviction(EvictionPolicy::Lru)
        .scheduling_cost(FCFS_SCHEDULING_COST)
}

/// The plain Samba-CoE baseline: one GPU inference executor, FCFS
/// ordering, LRU replacement. The `_device` parameter documents that
/// the configuration is device-independent; the cache-vs-SSD behaviour
/// follows from the device's memory architecture at run time.
#[must_use]
pub fn samba_coe(_device: &DeviceProfile) -> SystemConfig {
    samba_base("Samba-CoE").gpu_executors(1).build()
}

/// Samba-CoE with FIFO expert replacement.
#[must_use]
pub fn samba_coe_fifo(_device: &DeviceProfile) -> SystemConfig {
    samba_base("Samba-CoE FIFO")
        .gpu_executors(1)
        .eviction(EvictionPolicy::Fifo)
        .build()
}

/// Samba-CoE Parallel: executor count matched to CoServe's casual
/// configuration on this device, round-robin request distribution.
#[must_use]
pub fn samba_coe_parallel(device: &DeviceProfile) -> SystemConfig {
    let (gpus, cpus) = casual_executors(device);
    samba_base("Samba-CoE Parallel")
        .gpu_executors(gpus)
        .cpu_executors(cpus)
        .build()
}

/// The three Samba-CoE baselines in the paper's presentation order.
#[must_use]
pub fn all_baselines(device: &DeviceProfile) -> Vec<SystemConfig> {
    vec![
        samba_coe(device),
        samba_coe_fifo(device),
        samba_coe_parallel(device),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::devices;

    #[test]
    fn samba_is_single_executor_fcfs_lru() {
        let c = samba_coe(&devices::numa_rtx3080ti());
        assert_eq!(c.executors.len(), 1);
        assert_eq!(c.gpu_executor_count(), 1);
        assert_eq!(c.assign, AssignPolicy::RoundRobin);
        assert_eq!(c.arrange, ArrangePolicy::Fcfs);
        assert_eq!(c.eviction, EvictionPolicy::Lru);
        assert_eq!(c.name, "Samba-CoE");
    }

    #[test]
    fn fifo_variant_differs_only_in_eviction() {
        let lru = samba_coe(&devices::numa_rtx3080ti());
        let fifo = samba_coe_fifo(&devices::numa_rtx3080ti());
        assert_eq!(fifo.eviction, EvictionPolicy::Fifo);
        assert_eq!(fifo.executors, lru.executors);
        assert_eq!(fifo.assign, lru.assign);
        assert_eq!(fifo.arrange, lru.arrange);
    }

    #[test]
    fn parallel_matches_coserve_executor_counts() {
        let numa = samba_coe_parallel(&devices::numa_rtx3080ti());
        assert_eq!(numa.gpu_executor_count(), 3);
        assert_eq!(numa.cpu_executor_count(), 1);
        let uma = samba_coe_parallel(&devices::uma_apple_m2());
        assert_eq!(uma.gpu_executor_count(), 2);
        assert_eq!(uma.cpu_executor_count(), 1);
        assert_eq!(uma.eviction, EvictionPolicy::Lru);
    }

    #[test]
    fn all_baselines_ordered_as_in_paper() {
        let names: Vec<String> = all_baselines(&devices::numa_rtx3080ti())
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            names,
            vec!["Samba-CoE", "Samba-CoE FIFO", "Samba-CoE Parallel"]
        );
    }

    #[test]
    fn baselines_schedule_cheaply() {
        for c in all_baselines(&devices::uma_apple_m2()) {
            assert_eq!(c.scheduling_cost, FCFS_SCHEDULING_COST);
        }
    }
}
