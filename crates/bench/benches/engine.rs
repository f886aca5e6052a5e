//! End-to-end engine benchmarks: how fast the simulator serves the
//! paper workloads under each system, an online-shaped stream whose
//! queues stay shallow, plus an ablation of the dependency-aware
//! assignment's prediction cost (the engine's most expensive
//! per-request computation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_baselines::samba::samba_coe;
use coserve_core::config::SystemConfig;
use coserve_core::engine::Engine;
use coserve_core::perf::PerfMatrix;
use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_model::coe::CoeModel;
use coserve_sim::device::DeviceProfile;
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::stream::{RequestStream, StreamOrder};
use coserve_workload::task::TaskSpec;

struct Ctx {
    device: DeviceProfile,
    model: CoeModel,
    perf: PerfMatrix,
    stream: RequestStream,
}

fn ctx(requests_fraction: f64) -> Ctx {
    let task = TaskSpec::a1().scaled(requests_fraction);
    let model = task.build_model().expect("board A validates");
    let device = coserve_model::devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let stream = task.stream(&model);
    Ctx {
        device,
        model,
        perf,
        stream,
    }
}

fn run(ctx: &Ctx, config: &SystemConfig) -> f64 {
    Engine::new(&ctx.device, &ctx.model, &ctx.perf, config)
        .expect("valid config")
        .run(&ctx.stream)
        .throughput_ips()
}

fn bench_systems(c: &mut Criterion) {
    let ctx = ctx(0.2); // 500 requests of Task A1
    let mut group = c.benchmark_group("engine_serve_500_requests");
    group.sample_size(10);
    let coserve_cfg = presets::coserve(&ctx.device);
    group.bench_function("coserve_full", |b| {
        b.iter(|| black_box(run(&ctx, &coserve_cfg)));
    });
    let samba_cfg = samba_coe(&ctx.device);
    group.bench_function("samba_coe", |b| {
        b.iter(|| black_box(run(&ctx, &samba_cfg)));
    });
    let none_cfg = presets::coserve_none(&ctx.device);
    group.bench_function("coserve_none", |b| {
        b.iter(|| black_box(run(&ctx, &none_cfg)));
    });
    group.finish();
}

/// Live traffic below capacity, shaped like perfbench's
/// `online-poisson` stream: 2 000 iid A1 requests with Poisson arrivals
/// at 4 req/s under the online preset. Queues stay shallow, so most
/// stages reach an idle executor, unlike the board-order streams above.
fn bench_online(c: &mut Criterion) {
    let mut ctx = ctx(0.02);
    let task = TaskSpec::a1();
    ctx.stream = RequestStream::generate_open_loop(
        "iid poisson 4 rps",
        task.board(),
        &ctx.model,
        2_000,
        ArrivalProcess::poisson(4.0),
        StreamOrder::Iid,
        7,
    );
    let mut group = c.benchmark_group("engine_serve_online");
    group.sample_size(10);
    let online_cfg = presets::coserve_online(&ctx.device);
    group.bench_function("coserve_online_poisson_4rps_2000_requests", |b| {
        b.iter(|| black_box(run(&ctx, &online_cfg)));
    });
    group.finish();
}

/// Ablation bench for a deliberate scheduler design choice: the
/// dependency-aware assignment predicts queue totals per arrival
/// (O(executors × runs)); round-robin is O(1). This quantifies the
/// simulator-side cost of that choice.
fn bench_assignment_cost(c: &mut Criterion) {
    let ctx = ctx(0.2);
    let mut group = c.benchmark_group("engine_assignment_ablation");
    group.sample_size(10);
    let dependency_aware = presets::coserve(&ctx.device);
    let mut round_robin = presets::coserve(&ctx.device);
    round_robin.assign = coserve_core::config::AssignPolicy::RoundRobin;
    group.bench_function("dependency_aware_assign", |b| {
        b.iter(|| black_box(run(&ctx, &dependency_aware)));
    });
    group.bench_function("round_robin_assign", |b| {
        b.iter(|| black_box(run(&ctx, &round_robin)));
    });
    group.finish();
}

fn bench_preload(c: &mut Criterion) {
    let ctx = ctx(0.02);
    let mut group = c.benchmark_group("engine_initialization");
    group.sample_size(20);
    let config = presets::coserve(&ctx.device);
    group.bench_function("build_and_preload_370_experts", |b| {
        b.iter(|| {
            let engine =
                Engine::new(&ctx.device, &ctx.model, &ctx.perf, &config).expect("valid config");
            black_box(engine.memory_layout().executors.len())
        });
    });
    group.finish();
}

/// Ablation bench over the eviction-policy axis: the dependency-aware
/// two-stage policy vs LRU and FIFO, end to end.
fn bench_eviction_policies(c: &mut Criterion) {
    let ctx = ctx(0.1);
    let mut group = c.benchmark_group("engine_eviction_ablation");
    group.sample_size(10);
    for policy in [
        coserve_core::evict::EvictionPolicy::DependencyAware,
        coserve_core::evict::EvictionPolicy::Lru,
        coserve_core::evict::EvictionPolicy::Fifo,
    ] {
        let mut cfg = presets::coserve(&ctx.device);
        cfg.eviction = policy;
        group.bench_function(format!("{policy}"), |b| {
            b.iter(|| black_box(run(&ctx, &cfg)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_systems,
    bench_online,
    bench_assignment_cost,
    bench_preload,
    bench_eviction_policies
);
criterion_main!(benches);
