//! Calibrated device profiles for the paper's evaluation hardware.
//!
//! These functions take the hardware-only presets from `coserve-sim` and
//! install kernel cost models for the three paper architectures on both
//! processors. The constants are calibrated so the simulator reproduces
//! the *shapes* of the paper's measurement figures:
//!
//! * Figure 1 — switch latency share: ≥ 90 % for SSD→GPU on both
//!   devices, 63–86 % for CPU→GPU;
//! * Figures 5/12 — execution latency linear in batch size; average
//!   latency plateaus near batch 16 (NUMA GPU), 6 (UMA GPU), 5–8 (CPU);
//! * Figure 6 — GPU memory footprint grows ≈ 1.5 ResNet101 experts per
//!   extra batch item on the NUMA device.
//!
//! The band assertions in `tests/figures_smoke.rs` pin these shapes;
//! `PAPER.md` at the workspace root summarizes the source paper.

use coserve_sim::compute::{LatencyModel, MemoryModel};
use coserve_sim::device::{DeviceProfile, KernelProfile, ProcessorKind};
use coserve_sim::memory::Bytes;

use crate::arch::{ArchSpec, RESNET101, YOLOV5L, YOLOV5M};

fn kernel(
    base_ms: f64,
    per_item_ms: f64,
    saturation: u32,
    penalty: f64,
    workspace_mib: u64,
    weights: Bytes,
    per_item_mib: u64,
) -> KernelProfile {
    KernelProfile {
        latency: LatencyModel::linear(base_ms, per_item_ms).with_saturation(saturation, penalty),
        memory: MemoryModel::new(Bytes::mib(workspace_mib), weights, Bytes::mib(per_item_mib)),
    }
}

/// Installs calibrated kernels for the three paper architectures on a
/// NUMA device profile (RTX 3080 Ti GPU + Xeon Silver 4214R CPU).
pub fn install_numa_kernels(device: &mut DeviceProfile) {
    let resnet = ArchSpec::resnet101().weights();
    let yolom = ArchSpec::yolov5m().weights();
    let yolol = ArchSpec::yolov5l().weights();
    use ProcessorKind::{Cpu, Gpu};
    device.set_kernel(RESNET101, Gpu, kernel(8.0, 1.1, 16, 0.5, 200, resnet, 260));
    device.set_kernel(
        RESNET101,
        Cpu,
        kernel(170.0, 36.0, 8, 4.0, 100, resnet, 150),
    );
    device.set_kernel(YOLOV5M, Gpu, kernel(4.0, 2.0, 12, 0.8, 150, yolom, 190));
    device.set_kernel(YOLOV5M, Cpu, kernel(300.0, 75.0, 6, 8.0, 100, yolom, 110));
    device.set_kernel(YOLOV5L, Gpu, kernel(5.0, 3.2, 12, 1.0, 200, yolol, 260));
    device.set_kernel(YOLOV5L, Cpu, kernel(450.0, 120.0, 5, 12.0, 120, yolol, 160));
}

/// Installs calibrated kernels for the three paper architectures on a
/// UMA device profile (Apple M2).
pub fn install_uma_kernels(device: &mut DeviceProfile) {
    let resnet = ArchSpec::resnet101().weights();
    let yolom = ArchSpec::yolov5m().weights();
    let yolol = ArchSpec::yolov5l().weights();
    use ProcessorKind::{Cpu, Gpu};
    device.set_kernel(RESNET101, Gpu, kernel(9.0, 2.2, 6, 1.2, 150, resnet, 180));
    device.set_kernel(RESNET101, Cpu, kernel(80.0, 30.0, 5, 5.0, 80, resnet, 120));
    device.set_kernel(YOLOV5M, Gpu, kernel(14.0, 5.5, 6, 1.5, 120, yolom, 140));
    device.set_kernel(YOLOV5M, Cpu, kernel(180.0, 60.0, 5, 8.0, 80, yolom, 100));
    device.set_kernel(YOLOV5L, Gpu, kernel(30.0, 12.0, 6, 2.5, 150, yolol, 200));
    device.set_kernel(YOLOV5L, Cpu, kernel(260.0, 100.0, 4, 14.0, 100, yolol, 140));
}

/// The paper's NUMA evaluation device with calibrated kernels installed.
#[must_use]
pub fn numa_rtx3080ti() -> DeviceProfile {
    let mut d = DeviceProfile::numa_rtx3080ti();
    install_numa_kernels(&mut d);
    d
}

/// The paper's UMA evaluation device with calibrated kernels installed.
#[must_use]
pub fn uma_apple_m2() -> DeviceProfile {
    let mut d = DeviceProfile::uma_apple_m2();
    install_uma_kernels(&mut d);
    d
}

/// Both evaluation devices, NUMA first — the iteration order used by
/// every figure harness.
#[must_use]
pub fn paper_devices() -> Vec<DeviceProfile> {
    vec![numa_rtx3080ti(), uma_apple_m2()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_sim::transfer::TransferRoute;

    /// Switch share for batch-1 inference on the GPU, as in Figure 1.
    fn switch_share(
        device: &DeviceProfile,
        arch: coserve_sim::device::ArchId,
        route: TransferRoute,
    ) -> f64 {
        let k = device.kernel(arch, ProcessorKind::Gpu).unwrap();
        let weights = k.memory.weights;
        let exec = k.latency.latency(1).as_secs_f64();
        let switch = device.transfer_duration(weights, route).as_secs_f64();
        switch / (switch + exec)
    }

    #[test]
    fn both_devices_have_all_kernels() {
        for d in paper_devices() {
            for arch in [RESNET101, YOLOV5M, YOLOV5L] {
                for proc in ProcessorKind::ALL {
                    assert!(
                        d.kernel(arch, proc).is_some(),
                        "{} missing kernel for {arch}/{proc}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_ssd_to_gpu_share_exceeds_90_percent() {
        for d in paper_devices() {
            for arch in [RESNET101, YOLOV5M, YOLOV5L] {
                let share = switch_share(&d, arch, TransferRoute::SsdToGpu);
                assert!(
                    share > 0.88,
                    "{}/{arch}: SSD→GPU share {share:.3} below Figure 1 band",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn figure1_cpu_to_gpu_share_in_band() {
        for d in paper_devices() {
            for arch in [RESNET101, YOLOV5M, YOLOV5L] {
                let share = switch_share(&d, arch, TransferRoute::CpuToGpu);
                assert!(
                    (0.55..0.95).contains(&share),
                    "{}/{arch}: CPU→GPU share {share:.3} outside Figure 1 band",
                    d.name()
                );
            }
        }
    }

    /// The batch size in `1..=32` with the lowest average per-request
    /// latency on `device`'s ResNet101 kernel for `proc` (the first on
    /// ties).
    fn optimal_batch(device: &DeviceProfile, proc: ProcessorKind) -> u32 {
        let latency = device.kernel(RESNET101, proc).unwrap().latency;
        let avg = |n: u32| latency.latency_ms(n) / f64::from(n);
        (1..=32).min_by(|&a, &b| avg(a).total_cmp(&avg(b))).unwrap()
    }

    #[test]
    fn figure5_gpu_avg_latency_plateaus_where_paper_says() {
        let numa_opt = optimal_batch(&numa_rtx3080ti(), ProcessorKind::Gpu);
        assert!((12..=20).contains(&numa_opt), "NUMA GPU optimum {numa_opt}");

        let uma = uma_apple_m2();
        let uma_opt = optimal_batch(&uma, ProcessorKind::Gpu);
        assert!((5..=8).contains(&uma_opt), "UMA GPU optimum {uma_opt}");
        let uma_cpu_opt = optimal_batch(&uma, ProcessorKind::Cpu);
        assert!(
            (4..=7).contains(&uma_cpu_opt),
            "UMA CPU optimum {uma_cpu_opt}"
        );
    }

    #[test]
    fn figure6_batch_item_costs_about_1_5_experts_on_numa() {
        let d = numa_rtx3080ti();
        let k = d.kernel(RESNET101, ProcessorKind::Gpu).unwrap();
        let ratio = k.memory.per_item.get() as f64 / k.memory.weights.get() as f64;
        assert!(
            (1.2..1.9).contains(&ratio),
            "per-item/weights ratio {ratio:.2} outside Figure 6 band"
        );
    }

    #[test]
    fn cpu_is_much_slower_than_gpu() {
        for d in paper_devices() {
            for arch in [RESNET101, YOLOV5M, YOLOV5L] {
                let gpu = d
                    .kernel(arch, ProcessorKind::Gpu)
                    .unwrap()
                    .latency
                    .latency_ms(4);
                let cpu = d
                    .kernel(arch, ProcessorKind::Cpu)
                    .unwrap()
                    .latency
                    .latency_ms(4);
                assert!(cpu > 4.0 * gpu, "{}: CPU {cpu} vs GPU {gpu}", d.name());
            }
        }
    }
}
