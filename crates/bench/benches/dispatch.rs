//! Microbenchmarks for the cluster front-end: routing a whole request
//! stream through a fresh `Dispatcher`, the host cost a fleet pays per
//! request before any node sees it. The first case is perfbench's
//! `cluster-fleet` routing (4 Board A nodes, usage-aware placement,
//! residency-first, 48 req/s of iid Poisson A1 traffic); the second
//! shards every expert and rotates blindly, so most stages pay a hop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_cluster::dispatch::{Dispatcher, FeedbackMode, RoutePolicy, Routing};
use coserve_cluster::placement::PlacementStrategy;
use coserve_cluster::{ClusterOptions, ClusterSystem};
use coserve_core::presets;
use coserve_model::devices;
use coserve_sim::network::LinkProfile;
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::{RequestStream, StreamOrder};

const NODES: usize = 4;
const JOBS: usize = 4_000;
const RATE_RPS: f64 = 48.0;

fn fleet(options: ClusterOptions) -> (ClusterSystem, RequestStream) {
    let device = devices::numa_rtx3080ti();
    let board = BoardSpec::board_a();
    let model = board.build_model().expect("board A validates");
    let cluster = ClusterSystem::homogeneous(
        NODES,
        &device,
        &presets::coserve(&device),
        &model,
        LinkProfile::ethernet_10g(),
        options,
    )
    .expect("a Board A fleet builds");
    let stream = RequestStream::generate_open_loop(
        "dispatch bench",
        &board,
        cluster.model(),
        JOBS,
        ArrivalProcess::poisson(RATE_RPS),
        StreamOrder::Iid,
        7,
    );
    (cluster, stream)
}

/// Routes every job of `stream` through a fresh open-loop dispatcher
/// with every node live and no faults; returns how many were routed.
fn route_stream(cluster: &ClusterSystem, stream: &RequestStream) -> usize {
    let alive = vec![true; cluster.num_nodes()];
    let mut dispatcher = Dispatcher::new(
        cluster.num_nodes(),
        cluster.options().route,
        FeedbackMode::OpenLoop,
    );
    stream
        .jobs()
        .iter()
        .filter(|job| {
            let routing = dispatcher.route_job(
                job,
                cluster.plan(),
                cluster.service(),
                cluster.link(),
                &alive,
                None,
            );
            matches!(routing, Routing::Routed { .. })
        })
        .count()
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_route_4000_jobs");
    group.sample_size(200);
    let cases = [
        ("usage_aware_residency_first", ClusterOptions::default()),
        (
            "sharded_round_robin",
            ClusterOptions::default()
                .placement(PlacementStrategy::Sharded)
                .route(RoutePolicy::RoundRobin),
        ),
    ];
    for (name, options) in cases {
        let (cluster, stream) = fleet(options);
        group.bench_function(name, |b| {
            b.iter(|| black_box(route_stream(&cluster, &stream)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
