//! Microbenchmarks for the eviction policies: CoServe's two-stage
//! dependency-aware selection vs LRU and FIFO, across pool sizes — the
//! "expert management" cost the paper bounds at <0.2 % of task time.
//!
//! Every case calls `ModelPool::select_victims_into` on a pool that
//! keeps its policy's victim order, with a reused victim list — the
//! path the engine runs on every switch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_core::evict::EvictionPolicy;
use coserve_core::perf::PerfMatrix;
use coserve_core::pool::ModelPool;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::memory::Bytes;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::board::BoardSpec;

const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::DependencyAware,
    EvictionPolicy::Lru,
    EvictionPolicy::Fifo,
];

/// Board A's model and its usage matrix.
fn board_a() -> (BoardSpec, CoeModel, PerfMatrix) {
    let board = BoardSpec::board_a();
    let model = board.build_model().expect("board A validates");
    let perf = PerfMatrix::from_model_with(&model, |_, _| None);
    (board, model, perf)
}

/// A `policy` pool of `capacity` holding `experts`, expert `i` loaded
/// at `i` ms.
fn pool<'m>(
    policy: EvictionPolicy,
    capacity: Bytes,
    model: &'m CoeModel,
    perf: &'m PerfMatrix,
    experts: impl IntoIterator<Item = ExpertId>,
) -> ModelPool<'m> {
    let mut pool = ModelPool::new(capacity, policy, model, perf);
    for e in experts {
        let at = SimTime::ZERO + SimSpan::from_millis(u64::from(e.0));
        pool.insert(e, model.weight_bytes(e), at).expect("fits");
    }
    pool
}

/// Times selecting `need` bytes of victims from `pool` under `name`.
fn bench_select(c: &mut Criterion, name: String, pool: &ModelPool<'_>, need: Bytes) {
    let mut victims = Vec::new();
    c.bench_function(name, |b| {
        b.iter(|| {
            pool.select_victims_into(need, &[], &mut victims)
                .expect("pool has enough unprotected bytes");
            black_box(victims.len())
        });
    });
}

/// A realistic pool: the first `n` experts of Board A resident.
fn bench_policies(c: &mut Criterion) {
    let (_, model, perf) = board_a();
    for residents in [16u32, 64, 256] {
        for policy in POLICIES {
            let experts = (0..residents).map(ExpertId);
            let pool = pool(policy, Bytes::gib(64), &model, &perf, experts);
            let name = format!("eviction_select_victims/{policy}_kept/{residents}_residents");
            bench_select(c, name, &pool, Bytes::mib(400));
        }
    }
}

/// A pool dominated by detection (subsequent) experts without their
/// preliminaries: stage 1 does all the work.
fn bench_orphan_heavy_pool(c: &mut Criterion) {
    let (board, model, perf) = board_a();
    let detectors = (0..board.num_detectors() as u32).map(|g| board.detector_of(g));
    let pool = pool(
        EvictionPolicy::DependencyAware,
        Bytes::gib(16),
        &model,
        &perf,
        detectors,
    );
    let name = "eviction_stage1_orphans_kept/18_detectors".to_string();
    bench_select(c, name, &pool, Bytes::mib(300));
}

/// A pool packed to the brim: every Board A expert resident.
fn bench_full_pool(c: &mut Criterion) {
    let (_, model, perf) = board_a();
    let residents = model.num_experts() as u32;
    for policy in [EvictionPolicy::DependencyAware, EvictionPolicy::Lru] {
        let experts = (0..residents).map(ExpertId);
        let pool = pool(policy, Bytes::gib(128), &model, &perf, experts);
        let name = format!("eviction_full_pool/{policy}_kept/{residents}_residents");
        bench_select(c, name, &pool, Bytes::mib(400));
    }
}

criterion_group!(
    benches,
    bench_policies,
    bench_orphan_heavy_pool,
    bench_full_pool
);
criterion_main!(benches);
