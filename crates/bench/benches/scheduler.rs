//! Microbenchmarks for the dependency-aware request scheduler's data
//! structures: grouped insertion, batch peeling, and run enumeration —
//! the per-request costs Figure 19 argues stay below inference latency.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use coserve_core::queue::{ExecutorQueue, PendingRequest};
use coserve_model::expert::ExpertId;
use coserve_sim::rng::SimRng;
use coserve_sim::time::SimTime;
use coserve_workload::stream::JobId;

fn filled_queue(n: usize, experts: u32, grouped: bool, seed: u64) -> ExecutorQueue {
    let mut rng = SimRng::seed_from(seed);
    let mut q = ExecutorQueue::new();
    for i in 0..n {
        let req = PendingRequest {
            job: JobId(i as u32),
            stage: 0,
            expert: ExpertId(rng.next_below(u64::from(experts)) as u32),
            ready_at: SimTime::ZERO,
        };
        if grouped {
            q.insert_grouped(req);
        } else {
            q.push_back(req);
        }
    }
    q
}

fn bench_arranging(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_arranging");
    for &len in &[100usize, 1_000, 5_000] {
        group.bench_function(format!("insert_grouped/{len}"), |b| {
            b.iter_batched(
                || filled_queue(len, 64, true, 1),
                |mut q| {
                    q.insert_grouped(PendingRequest {
                        job: JobId(u32::MAX),
                        stage: 0,
                        expert: ExpertId(7),
                        ready_at: SimTime::ZERO,
                    });
                    black_box(q.len())
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("push_back_fcfs/{len}"), |b| {
            b.iter_batched(
                || filled_queue(len, 64, false, 1),
                |mut q| {
                    q.push_back(PendingRequest {
                        job: JobId(u32::MAX),
                        stage: 0,
                        expert: ExpertId(7),
                        ready_at: SimTime::ZERO,
                    });
                    black_box(q.len())
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_prediction_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_prediction");
    for &len in &[100usize, 1_000, 5_000] {
        let grouped = filled_queue(len, 64, true, 2);
        // The maintained run index (what the assigner now probes) vs
        // the from-scratch rescan it replaced.
        group.bench_function(format!("runs_iter_incremental/{len}"), |b| {
            b.iter(|| black_box(grouped.runs_iter().count()));
        });
        group.bench_function(format!("runs_recompute_scan/{len}"), |b| {
            b.iter(|| black_box(grouped.recompute_runs().len()));
        });
        let fcfs = filled_queue(len, 64, false, 2);
        group.bench_function(format!("runs_fcfs/{len}"), |b| {
            b.iter(|| black_box(fcfs.runs_iter().count()));
        });
    }
    group.finish();
}

fn bench_bounded_arranging(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_arranging_bounded");
    for &len in &[1_000usize, 5_000] {
        group.bench_function(format!("insert_grouped_bounded/{len}"), |b| {
            b.iter_batched(
                || filled_queue(len, 64, true, 1),
                |mut q| {
                    q.insert_grouped_bounded(
                        PendingRequest {
                            job: JobId(u32::MAX),
                            stage: 0,
                            expert: ExpertId(7),
                            ready_at: SimTime::ZERO,
                        },
                        8,
                    );
                    black_box(q.len())
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The full assign/arrange hot path: a DependencyAware + Grouped engine
/// serving a dense stream — every request probes every executor's
/// work-left aggregates and grouped-inserts into the chosen queue.
fn bench_assign_arrange_engine(c: &mut Criterion) {
    use coserve_core::config::SystemConfig;
    use coserve_core::engine::Engine;
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_sim::time::SimSpan;
    use coserve_workload::board::BoardSpec;
    use coserve_workload::stream::{RequestStream, StreamOrder};

    let board = BoardSpec::synthetic("sched-bench", 40, 3, 1.2, 40.0, 0.5);
    let model = board.build_model().expect("valid board");
    let device = coserve_model::devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let stream = RequestStream::generate(
        "sched-bench",
        &board,
        &model,
        600,
        SimSpan::from_micros(500),
        StreamOrder::Iid,
        11,
    );
    for executors in [2usize, 4] {
        let config = SystemConfig::builder("assign-bench")
            .gpu_executors(executors)
            .build();
        let engine = Engine::new(&device, &model, &perf, &config).expect("valid engine");
        c.bench_function(
            format!("assign_arrange/dependency_aware_{executors}exec_600req"),
            |b| b.iter(|| black_box(engine.run(&stream).completed)),
        );
    }
}

fn bench_batch_peeling(c: &mut Criterion) {
    c.bench_function("pop_front_group_into/1000", |b| {
        b.iter_batched(
            || filled_queue(1_000, 16, true, 3),
            |mut q| {
                let mut popped = 0;
                let mut batch = Vec::new();
                while !q.is_empty() {
                    q.pop_front_group_into(16, &mut batch);
                    popped += batch.len();
                }
                black_box(popped)
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_arranging,
    bench_bounded_arranging,
    bench_prediction_primitives,
    bench_batch_peeling,
    bench_assign_arrange_engine
);
criterion_main!(benches);
