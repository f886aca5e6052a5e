//! Microbenchmarks for the eviction policies: CoServe's two-stage
//! dependency-aware selection vs LRU and FIFO, across pool sizes — the
//! "expert management" cost the paper bounds at <0.2 % of task time.
//!
//! Each case runs twice: `select_victims` on a bare pool derives the
//! dependency-aware orders on every call, while the `kept` cases call
//! `select_victims_into` on a `RankedPool` whose orders are kept, with
//! reused scratch — the path the engine runs on every switch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_core::evict::{
    select_victims, select_victims_into, EvictionContext, EvictionPolicy, EvictionScratch,
    RankedPool,
};
use coserve_core::perf::PerfMatrix;
use coserve_core::pool::ModelPool;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::memory::Bytes;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::board::BoardSpec;

/// A realistic pool: the first `n` experts of Board A resident.
fn setup(n: u32) -> (CoeModel, PerfMatrix, ModelPool) {
    let board = BoardSpec::board_a();
    let model = board.build_model().expect("board A validates");
    let perf = PerfMatrix::from_model_with(&model, |_, _| None);
    let mut pool = ModelPool::new(Bytes::gib(64));
    for i in 0..n {
        let e = ExpertId(i);
        pool.insert(
            e,
            model.weight_bytes(e),
            SimTime::ZERO + SimSpan::from_millis(u64::from(i)),
        )
        .expect("fits");
    }
    (model, perf, pool)
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction_select_victims");
    for &residents in &[16u32, 64, 256] {
        let (model, perf, pool) = setup(residents);
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let need = Bytes::mib(400);
        let ranked = RankedPool::new(pool.clone(), &model, &perf);
        let mut scratch = EvictionScratch::new();
        for policy in [
            EvictionPolicy::DependencyAware,
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
        ] {
            group.bench_function(format!("{policy}/{residents}_residents"), |b| {
                b.iter(|| {
                    let victims = select_victims(policy, &pool, need, &ctx)
                        .expect("pool has enough unprotected bytes");
                    black_box(victims.len())
                });
            });
            group.bench_function(format!("{policy}_kept/{residents}_residents"), |b| {
                b.iter(|| {
                    select_victims_into(policy, &ranked, need, &ctx, &mut scratch)
                        .expect("pool has enough unprotected bytes");
                    black_box(scratch.victims().len())
                });
            });
        }
    }
    group.finish();
}

fn bench_orphan_heavy_pool(c: &mut Criterion) {
    // A pool dominated by detection (subsequent) experts without their
    // preliminaries: stage 1 does all the work.
    let board = BoardSpec::board_a();
    let model = board.build_model().expect("board A validates");
    let perf = PerfMatrix::from_model_with(&model, |_, _| None);
    let mut pool = ModelPool::new(Bytes::gib(16));
    for g in 0..board.num_detectors() as u32 {
        let e = board.detector_of(g);
        pool.insert(e, model.weight_bytes(e), SimTime::ZERO)
            .expect("fits");
    }
    let ctx = EvictionContext {
        model: &model,
        perf: &perf,
        protected: &[],
    };
    c.bench_function("eviction_stage1_orphans/18_detectors", |b| {
        b.iter(|| {
            let victims = select_victims(
                EvictionPolicy::DependencyAware,
                &pool,
                Bytes::mib(300),
                &ctx,
            )
            .expect("orphans cover the need");
            black_box(victims.len())
        });
    });
    let ranked = RankedPool::new(pool, &model, &perf);
    let mut scratch = EvictionScratch::new();
    c.bench_function("eviction_stage1_orphans_kept/18_detectors", |b| {
        b.iter(|| {
            select_victims_into(
                EvictionPolicy::DependencyAware,
                &ranked,
                Bytes::mib(300),
                &ctx,
                &mut scratch,
            )
            .expect("orphans cover the need");
            black_box(scratch.victims().len())
        });
    });
}

/// A pool packed to the brim (every Board A expert resident): the
/// engine's path (kept orders, reusable scratch) vs the allocating
/// wrapper that derives the orders per call.
fn bench_full_pool_scratch_reuse(c: &mut Criterion) {
    let board = BoardSpec::board_a();
    let model = board.build_model().expect("board A validates");
    let perf = PerfMatrix::from_model_with(&model, |_, _| None);
    let mut pool = ModelPool::new(Bytes::gib(128));
    for i in 0..model.num_experts() as u32 {
        let e = ExpertId(i);
        pool.insert(
            e,
            model.weight_bytes(e),
            SimTime::ZERO + SimSpan::from_millis(u64::from(i)),
        )
        .expect("fits");
    }
    let ctx = EvictionContext {
        model: &model,
        perf: &perf,
        protected: &[],
    };
    let need = Bytes::mib(400);
    let residents = pool.len();
    let ranked = RankedPool::new(pool.clone(), &model, &perf);
    for policy in [EvictionPolicy::DependencyAware, EvictionPolicy::Lru] {
        let mut scratch = EvictionScratch::new();
        c.bench_function(
            format!("eviction_full_pool/{policy}_kept/{residents}_residents"),
            |b| {
                b.iter(|| {
                    select_victims_into(policy, &ranked, need, &ctx, &mut scratch)
                        .expect("full pool covers the need");
                    black_box(scratch.victims().len())
                });
            },
        );
        c.bench_function(
            format!("eviction_full_pool/{policy}_alloc/{residents}_residents"),
            |b| {
                b.iter(|| {
                    let victims =
                        select_victims(policy, &pool, need, &ctx).expect("full pool covers");
                    black_box(victims.len())
                });
            },
        );
    }
}

criterion_group!(
    benches,
    bench_policies,
    bench_orphan_heavy_pool,
    bench_full_pool_scratch_reuse
);
criterion_main!(benches);
