//! Device profiles.
//!
//! A [`DeviceProfile`] bundles everything the engine needs to know about
//! a target machine: the memory architecture (NUMA vs UMA), memory
//! capacities, data-path costs, and a kernel table mapping each
//! (architecture × processor) pair to its ground-truth latency and
//! memory models. The two presets correspond to the paper's Table 1:
//! an RTX 3080 Ti + Xeon Silver 4214R NUMA box and an Apple M2 UMA box.
//!
//! Presets describe *hardware only*; kernel entries for concrete expert
//! architectures are installed by higher layers (the model crate knows
//! what a ResNet101 is, this crate does not).

use std::collections::BTreeMap;
use std::fmt;

use crate::compute::{LatencyModel, MemoryModel};
use crate::memory::Bytes;
use crate::time::SimSpan;
use crate::transfer::{TransferCosts, TransferRoute, TransferStages};

/// Identifies an expert *architecture* (e.g. ResNet101). All experts of
/// one architecture share compute cost and footprint; the paper profiles
/// each architecture once (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchId(pub u32);

impl fmt::Display for ArchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arch#{}", self.0)
    }
}

/// Which processor executes a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessorKind {
    /// The device's GPU (or the GPU cores of a UMA SoC).
    Gpu,
    /// The device's CPU.
    Cpu,
}

impl ProcessorKind {
    /// Both processor kinds, in a stable order.
    pub const ALL: [ProcessorKind; 2] = [ProcessorKind::Gpu, ProcessorKind::Cpu];
}

impl fmt::Display for ProcessorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessorKind::Gpu => write!(f, "GPU"),
            ProcessorKind::Cpu => write!(f, "CPU"),
        }
    }
}

/// Memory architecture of the device (paper Figure 1 distinguishes both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryArch {
    /// Discrete GPU with its own memory, connected over PCIe.
    Numa,
    /// Unified memory shared by CPU and GPU (e.g. Apple silicon).
    Uma,
}

impl fmt::Display for MemoryArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryArch::Numa => write!(f, "NUMA"),
            MemoryArch::Uma => write!(f, "UMA"),
        }
    }
}

/// Ground-truth cost models for one (architecture × processor) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Batch execution latency.
    pub latency: LatencyModel,
    /// Memory footprint.
    pub memory: MemoryModel,
}

/// A complete description of a target device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    memory_arch: MemoryArch,
    gpu_memory: Bytes,
    gpu_reserved: Bytes,
    cpu_memory: Bytes,
    cpu_reserved: Bytes,
    ssd_name: String,
    executor_overhead: Bytes,
    host_work_slots: usize,
    transfer: TransferCosts,
    kernels: BTreeMap<(ArchId, ProcessorKind), KernelProfile>,
}

impl DeviceProfile {
    /// Starts a builder for a custom device.
    #[must_use]
    pub fn builder(name: impl Into<String>, memory_arch: MemoryArch) -> DeviceProfileBuilder {
        DeviceProfileBuilder::new(name, memory_arch)
    }

    /// The paper's NUMA evaluation box: NVIDIA RTX 3080 Ti (12 GB) +
    /// Intel Xeon Silver 4214R (16 GB) + MICRON MTFDDAK480TDS SSD
    /// (530 MB/s reads). Kernel entries are installed by callers.
    #[must_use]
    pub fn numa_rtx3080ti() -> DeviceProfile {
        DeviceProfile::builder("NUMA (RTX 3080 Ti + Xeon 4214R)", MemoryArch::Numa)
            .gpu_memory(Bytes::gib(12), Bytes::mib(1536))
            .cpu_memory(Bytes::gib(16), Bytes::gib(2))
            .executor_overhead(Bytes::mib(384))
            .host_work_slots(4)
            .ssd("MICRON MTFDDAK480TDS", 530.0)
            .transfer(TransferCosts {
                ssd_read_mbps: 530.0,
                deserialize_mbps: 300.0,
                ssd_fixed: SimSpan::from_millis(2),
                h2d_mbps: 12_000.0,
                reorg_mbps: 8_000.0,
                h2d_fixed: SimSpan::from_millis(3),
                d2h_mbps: 12_000.0,
                d2h_fixed: SimSpan::from_millis(1),
            })
            .build()
    }

    /// The paper's UMA evaluation box: Apple M2 with 24 GB unified
    /// memory and an APPLE SSD AP0512Z (~3000 MB/s reads). There is no
    /// physical host→device copy, but the framework still reorganizes
    /// data when moving tensors to the GPU backend — the cost behind
    /// Figure 1's UMA columns.
    #[must_use]
    pub fn uma_apple_m2() -> DeviceProfile {
        DeviceProfile::builder("UMA (Apple M2)", MemoryArch::Uma)
            .unified_memory(Bytes::gib(24), Bytes::gib(4))
            .executor_overhead(Bytes::mib(512))
            .host_work_slots(2)
            .ssd("APPLE SSD AP0512Z", 3000.0)
            .transfer(TransferCosts {
                ssd_read_mbps: 3000.0,
                deserialize_mbps: 900.0,
                ssd_fixed: SimSpan::from_millis(1),
                h2d_mbps: f64::INFINITY,
                reorg_mbps: 2_600.0,
                h2d_fixed: SimSpan::from_millis(2),
                d2h_mbps: f64::INFINITY,
                d2h_fixed: SimSpan::ZERO,
            })
            .build()
    }

    /// Human-readable device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// NUMA or UMA.
    #[must_use]
    pub fn memory_arch(&self) -> MemoryArch {
        self.memory_arch
    }

    /// Total GPU memory (on UMA: the unified pool).
    #[must_use]
    pub fn gpu_memory(&self) -> Bytes {
        self.gpu_memory
    }

    /// Total CPU memory (on UMA: the same unified pool).
    #[must_use]
    pub fn cpu_memory(&self) -> Bytes {
        self.cpu_memory
    }

    /// GPU memory available to the serving system after framework and
    /// context overheads.
    #[must_use]
    pub fn gpu_usable(&self) -> Bytes {
        self.gpu_memory.saturating_sub(self.gpu_reserved)
    }

    /// CPU memory available to the serving system after OS and runtime
    /// overheads. On UMA devices the unified pool is reported through
    /// [`DeviceProfile::gpu_usable`] and this returns the same value.
    #[must_use]
    pub fn cpu_usable(&self) -> Bytes {
        self.cpu_memory.saturating_sub(self.cpu_reserved)
    }

    /// SSD model string (Table 1).
    #[must_use]
    pub fn ssd_name(&self) -> &str {
        &self.ssd_name
    }

    /// Fixed memory cost of each inference-executor process (framework
    /// context, allocator arenas). Creating more executors fragments
    /// usable memory by this much per executor — the overhead behind
    /// the paper's observation that too many executors degrade
    /// throughput (Figure 17).
    #[must_use]
    pub fn executor_overhead(&self) -> Bytes {
        self.executor_overhead
    }

    /// How many checkpoint deserializations / data reorganizations the
    /// host CPU can run concurrently (roughly, performance cores
    /// available for framework work). Additional executors beyond this
    /// queue for the host-work pool.
    #[must_use]
    pub fn host_work_slots(&self) -> usize {
        self.host_work_slots
    }

    /// The device's transfer cost table.
    #[must_use]
    pub fn transfer(&self) -> &TransferCosts {
        self.transfer_ref()
    }

    fn transfer_ref(&self) -> &TransferCosts {
        &self.transfer
    }

    /// Installs (or replaces) the kernel profile for `(arch, proc)`.
    pub fn set_kernel(&mut self, arch: ArchId, proc: ProcessorKind, profile: KernelProfile) {
        self.kernels.insert((arch, proc), profile);
    }

    /// The kernel profile for `(arch, proc)`, if installed.
    #[must_use]
    pub fn kernel(&self, arch: ArchId, proc: ProcessorKind) -> Option<&KernelProfile> {
        self.kernels.get(&(arch, proc))
    }

    /// Stage durations for moving `bytes` along `route` on this device.
    #[must_use]
    pub fn transfer_stages(&self, bytes: Bytes, route: TransferRoute) -> TransferStages {
        self.transfer.stages(bytes, route)
    }

    /// End-to-end duration for moving `bytes` along `route`.
    #[must_use]
    pub fn transfer_duration(&self, bytes: Bytes, route: TransferRoute) -> SimSpan {
        self.transfer.duration(bytes, route)
    }

    /// Whether this device demotes evicted GPU experts into a CPU
    /// staging cache (NUMA) or drops them (UMA, where the paper's
    /// baseline loads directly from SSD).
    #[must_use]
    pub fn has_staging_cache(&self) -> bool {
        self.memory_arch == MemoryArch::Numa
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] GPU {} (usable {}), CPU {} (usable {}), SSD {}",
            self.name,
            self.memory_arch,
            self.gpu_memory,
            self.gpu_usable(),
            self.cpu_memory,
            self.cpu_usable(),
            self.ssd_name
        )
    }
}

/// Builder for [`DeviceProfile`].
#[derive(Debug)]
pub struct DeviceProfileBuilder {
    name: String,
    memory_arch: MemoryArch,
    gpu_memory: Bytes,
    gpu_reserved: Bytes,
    cpu_memory: Bytes,
    cpu_reserved: Bytes,
    ssd_name: String,
    executor_overhead: Bytes,
    host_work_slots: usize,
    transfer: Option<TransferCosts>,
    kernels: BTreeMap<(ArchId, ProcessorKind), KernelProfile>,
}

impl DeviceProfileBuilder {
    fn new(name: impl Into<String>, memory_arch: MemoryArch) -> Self {
        DeviceProfileBuilder {
            name: name.into(),
            memory_arch,
            gpu_memory: Bytes::ZERO,
            gpu_reserved: Bytes::ZERO,
            cpu_memory: Bytes::ZERO,
            cpu_reserved: Bytes::ZERO,
            ssd_name: "generic-ssd".to_string(),
            executor_overhead: Bytes::ZERO,
            host_work_slots: 4,
            transfer: None,
            kernels: BTreeMap::new(),
        }
    }

    /// Sets discrete GPU memory and the framework reservation inside it.
    #[must_use]
    pub fn gpu_memory(mut self, total: Bytes, reserved: Bytes) -> Self {
        self.gpu_memory = total;
        self.gpu_reserved = reserved;
        self
    }

    /// Sets CPU memory and the OS/runtime reservation inside it.
    #[must_use]
    pub fn cpu_memory(mut self, total: Bytes, reserved: Bytes) -> Self {
        self.cpu_memory = total;
        self.cpu_reserved = reserved;
        self
    }

    /// Configures a unified memory pool shared by CPU and GPU (UMA).
    /// Both `gpu_memory` and `cpu_memory` report the same pool.
    #[must_use]
    pub fn unified_memory(mut self, total: Bytes, reserved: Bytes) -> Self {
        self.gpu_memory = total;
        self.gpu_reserved = reserved;
        self.cpu_memory = total;
        self.cpu_reserved = reserved;
        self
    }

    /// Names the SSD (for Table 1) and records its raw read bandwidth.
    /// The bandwidth also overwrites `transfer.ssd_read_mbps` if a
    /// transfer table was already supplied.
    #[must_use]
    pub fn ssd(mut self, name: impl Into<String>, read_mbps: f64) -> Self {
        self.ssd_name = name.into();
        if let Some(t) = &mut self.transfer {
            t.ssd_read_mbps = read_mbps;
        }
        self
    }

    /// Sets the per-executor fixed memory overhead.
    #[must_use]
    pub fn executor_overhead(mut self, overhead: Bytes) -> Self {
        self.executor_overhead = overhead;
        self
    }

    /// Sets the host-CPU concurrency for framework work.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn host_work_slots(mut self, slots: usize) -> Self {
        assert!(slots > 0, "host work needs at least one slot");
        self.host_work_slots = slots;
        self
    }

    /// Sets the transfer cost table.
    #[must_use]
    pub fn transfer(mut self, costs: TransferCosts) -> Self {
        self.transfer = Some(costs);
        self
    }

    /// Installs a kernel profile.
    #[must_use]
    pub fn kernel(mut self, arch: ArchId, proc: ProcessorKind, profile: KernelProfile) -> Self {
        self.kernels.insert((arch, proc), profile);
        self
    }

    /// Finishes the profile.
    ///
    /// # Panics
    ///
    /// Panics if no transfer cost table was supplied — a device without
    /// data paths cannot swap experts, which is the entire premise.
    #[must_use]
    pub fn build(self) -> DeviceProfile {
        DeviceProfile {
            name: self.name,
            memory_arch: self.memory_arch,
            gpu_memory: self.gpu_memory,
            gpu_reserved: self.gpu_reserved,
            cpu_memory: self.cpu_memory,
            cpu_reserved: self.cpu_reserved,
            ssd_name: self.ssd_name,
            executor_overhead: self.executor_overhead,
            host_work_slots: self.host_work_slots,
            transfer: self.transfer.expect("device profile needs transfer costs"),
            kernels: self.kernels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kernel() -> KernelProfile {
        KernelProfile {
            latency: LatencyModel::linear(8.0, 1.1).with_saturation(16, 0.5),
            memory: MemoryModel::new(Bytes::mib(200), Bytes::mib(178), Bytes::mib(260)),
        }
    }

    #[test]
    fn numa_preset_matches_table1() {
        let d = DeviceProfile::numa_rtx3080ti();
        assert_eq!(d.memory_arch(), MemoryArch::Numa);
        assert_eq!(d.gpu_memory(), Bytes::gib(12));
        assert_eq!(d.cpu_memory(), Bytes::gib(16));
        assert!(d.ssd_name().contains("MICRON"));
        assert!(d.has_staging_cache());
        assert!(d.gpu_usable() < d.gpu_memory());
    }

    #[test]
    fn uma_preset_matches_table1() {
        let d = DeviceProfile::uma_apple_m2();
        assert_eq!(d.memory_arch(), MemoryArch::Uma);
        assert_eq!(d.gpu_memory(), Bytes::gib(24));
        assert_eq!(d.gpu_memory(), d.cpu_memory(), "unified pool");
        assert!(!d.has_staging_cache());
        assert!(d.ssd_name().contains("APPLE"));
    }

    #[test]
    fn uma_ssd_is_faster_but_still_pays_reorg() {
        let numa = DeviceProfile::numa_rtx3080ti();
        let uma = DeviceProfile::uma_apple_m2();
        let b = Bytes::new(178_000_000);
        let numa_load = numa.transfer_duration(b, TransferRoute::SsdToGpu);
        let uma_load = uma.transfer_duration(b, TransferRoute::SsdToGpu);
        assert!(uma_load < numa_load, "UMA SSD is ~6x faster");
        assert!(
            uma_load > SimSpan::from_millis(100),
            "UMA still pays deserialize+reorg: {uma_load}"
        );
    }

    #[test]
    fn kernel_installation_and_lookup() {
        let mut d = DeviceProfile::numa_rtx3080ti();
        let arch = ArchId(1);
        assert!(d.kernel(arch, ProcessorKind::Gpu).is_none());
        d.set_kernel(arch, ProcessorKind::Gpu, sample_kernel());
        let k = d.kernel(arch, ProcessorKind::Gpu).unwrap();
        assert!((k.latency.latency_ms(1) - 9.1).abs() < 1e-9);
        // Kernels are installed per (architecture, processor).
        assert!(d.kernel(arch, ProcessorKind::Cpu).is_none());
        assert!(d.kernel(ArchId(2), ProcessorKind::Gpu).is_none());
    }

    #[test]
    fn builder_custom_device() {
        let d = DeviceProfile::builder("edge-box", MemoryArch::Numa)
            .gpu_memory(Bytes::gib(8), Bytes::gib(1))
            .cpu_memory(Bytes::gib(32), Bytes::gib(2))
            .ssd("test-ssd", 1000.0)
            .transfer(TransferCosts {
                ssd_read_mbps: 1000.0,
                deserialize_mbps: 500.0,
                ssd_fixed: SimSpan::ZERO,
                h2d_mbps: 10_000.0,
                reorg_mbps: 5_000.0,
                h2d_fixed: SimSpan::ZERO,
                d2h_mbps: 10_000.0,
                d2h_fixed: SimSpan::ZERO,
            })
            .kernel(ArchId(0), ProcessorKind::Cpu, sample_kernel())
            .build();
        assert_eq!(d.gpu_usable(), Bytes::gib(7));
        assert_eq!(d.cpu_usable(), Bytes::gib(30));
        assert!(d.kernel(ArchId(0), ProcessorKind::Cpu).is_some());
        assert!(d.to_string().contains("edge-box"));
    }

    #[test]
    #[should_panic(expected = "transfer costs")]
    fn builder_without_transfer_panics() {
        let _ = DeviceProfile::builder("broken", MemoryArch::Uma).build();
    }

    #[test]
    fn kinds_display_their_names() {
        assert_eq!(ProcessorKind::Gpu.to_string(), "GPU");
        assert_eq!(MemoryArch::Numa.to_string(), "NUMA");
        assert_eq!(ArchId(5).to_string(), "arch#5");
    }
}
