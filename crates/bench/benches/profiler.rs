//! Offline-phase benchmarks: the microbenchmark sweep, the full
//! profiling pass, usage-probability computation, and the decay-window
//! search — the costs a deployment pays once per device (§4.5).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_core::autotune::window_search;
use coserve_core::presets;
use coserve_core::profiler::{estimate_usage, Profiler, UsageSource};
use coserve_model::arch::RESNET101;
use coserve_model::devices;
use coserve_sim::device::ProcessorKind;
use coserve_workload::task::TaskSpec;

fn bench_sweep_and_profile(c: &mut Criterion) {
    let device = devices::numa_rtx3080ti();
    let task = TaskSpec::a1().scaled(0.01);
    let model = task.build_model().expect("board A validates");
    let profiler = Profiler::with_defaults();

    c.bench_function("profiler_sweep_resnet101_gpu", |b| {
        b.iter(|| black_box(profiler.sweep(&device, RESNET101, ProcessorKind::Gpu).len()));
    });

    c.bench_function("profiler_full_profile_370_experts", |b| {
        b.iter(|| {
            let matrix = profiler.profile(&device, &model, UsageSource::Declared);
            black_box(matrix.num_experts())
        });
    });
}

fn bench_usage_estimation(c: &mut Criterion) {
    let task = TaskSpec::a1();
    let model = task.build_model().expect("board A validates");
    let sample = task.sample(2_000).stream(&model);
    c.bench_function("estimate_usage_2000_samples", |b| {
        b.iter(|| black_box(estimate_usage(&model, &sample).len()));
    });
}

fn bench_window_search(c: &mut Criterion) {
    let device = devices::numa_rtx3080ti();
    let task = TaskSpec::a1().scaled(0.05);
    let model = task.build_model().expect("board A validates");
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let sample = task.sample(120).stream(&model);
    let base = presets::coserve(&device);
    let mut group = c.benchmark_group("autotune");
    group.sample_size(10);
    group.bench_function("window_search_120_sample_requests", |b| {
        b.iter(|| {
            let result = window_search(&device, &model, &perf, &base, &sample);
            black_box(result.chosen)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_and_profile,
    bench_usage_estimation,
    bench_window_search
);
criterion_main!(benches);
