//! Cluster-scale serving: determinism, scaling, placement and routing
//! behaviour of `coserve-cluster` through the facade crate.

use coserve::prelude::*;

/// A 4-node homogeneous NUMA fleet over 10 GbE.
fn fleet(n: usize, options: ClusterOptions) -> ClusterSystem {
    let task = TaskSpec::a1();
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    ClusterSystem::homogeneous(
        n,
        &device,
        &presets::coserve(&device),
        &model,
        LinkProfile::ethernet_10g(),
        options,
    )
    .unwrap()
}

/// The overload workload the scaling assertions run: Task A1's board at
/// a Poisson rate far beyond one node's capacity, with shallow
/// admission queues so the undersized fleet sheds load.
fn overload_options() -> OpenLoopOptions {
    OpenLoopOptions::new(ArrivalProcess::poisson(4_000.0))
        .requests(500)
        .admission(AdmissionControl::with_queue_capacity(16))
}

#[test]
fn four_node_cluster_reports_are_bit_identical() {
    let run = || {
        let cluster = fleet(4, ClusterOptions::default());
        serve_cluster(&cluster, TaskSpec::a1().board(), &overload_options())
    };
    let (a, b) = (run(), run());
    // Field-level spot checks first, for diagnosable failures…
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.cross_node_hops, b.cross_node_hops);
    assert_eq!(a.fabric_time_total, b.fabric_time_total);
    assert_eq!(a.latency_summary(), b.latency_summary());
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.switch_events, nb.switch_events);
        assert_eq!(na.job_latencies, nb.job_latencies);
    }
    // …then the whole struct, bit for bit.
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn four_nodes_at_least_double_single_node_throughput_at_overload() {
    let options = overload_options();
    let board = TaskSpec::a1();
    let one = serve_cluster(
        &fleet(1, ClusterOptions::default()),
        board.board(),
        &options,
    );
    let four = serve_cluster(
        &fleet(4, ClusterOptions::default()),
        board.board(),
        &options,
    );
    assert_eq!(one.submitted, four.submitted);
    assert!(
        one.dropped > 0,
        "a single node must shed load at 4000 rps with capacity-16 queues"
    );
    let speedup = four.throughput_ips() / one.throughput_ips();
    assert!(
        speedup >= 2.0,
        "4-node speedup {speedup:.2}x below 2x ({:.1} vs {:.1} img/s)",
        four.throughput_ips(),
        one.throughput_ips()
    );
    assert!(four.drop_rate() < one.drop_rate());
}

#[test]
fn residency_first_beats_round_robin_on_cross_node_hops() {
    let options = overload_options();
    let board = TaskSpec::a1();
    let rf = serve_cluster(
        &fleet(
            4,
            ClusterOptions::default().route(RoutePolicy::ResidencyFirst),
        ),
        board.board(),
        &options,
    );
    let rr = serve_cluster(
        &fleet(4, ClusterOptions::default().route(RoutePolicy::RoundRobin)),
        board.board(),
        &options,
    );
    assert!(
        rf.cross_node_hops < rr.cross_node_hops,
        "residency-first {} hops vs round-robin {}",
        rf.cross_node_hops,
        rr.cross_node_hops
    );
    assert!(rr.cross_node_hops > 0, "locality-blind routing must hop");
    assert!(rr.fabric_time_total > SimSpan::ZERO);
    assert!(rf.fabric_time_total <= rr.fabric_time_total);
}

#[test]
fn cluster_conserves_every_submitted_job() {
    for placement in PlacementStrategy::ALL {
        for route in RoutePolicy::ALL {
            let options = ClusterOptions::default().placement(placement).route(route);
            let report = serve_cluster(
                &fleet(3, options),
                TaskSpec::a1().board(),
                &overload_options(),
            );
            assert_eq!(
                report.completed + report.failed + report.dropped,
                report.submitted,
                "{placement}/{route} lost jobs"
            );
            assert_eq!(report.num_nodes(), 3);
            // Per-node submissions sum to the cluster total.
            let node_submitted: usize = report.nodes.iter().map(|n| n.submitted).sum();
            assert_eq!(node_submitted, report.submitted);
        }
    }
}

#[test]
fn replicated_placement_never_pays_fabric_time() {
    let options = ClusterOptions::default().placement(PlacementStrategy::Replicated);
    let report = serve_cluster(
        &fleet(4, options),
        TaskSpec::a1().board(),
        &overload_options(),
    );
    assert_eq!(report.cross_node_hops, 0);
    assert_eq!(report.fabric_time_total, SimSpan::ZERO);
}

#[test]
fn failure_runs_are_bit_identical() {
    // A 4-node run with one mid-run failure, under tick-driven dispatch
    // with feedback: the full dynamic runtime must stay deterministic
    // bit for bit.
    let run = || {
        let cluster = fleet(4, ClusterOptions::default());
        let stream = open_loop_stream(cluster.model(), TaskSpec::a1().board(), &overload_options());
        let horizon = stream
            .last_arrival()
            .saturating_since(coserve::sim::time::SimTime::ZERO);
        let mid = coserve::sim::time::SimTime::ZERO
            + coserve::sim::time::SimSpan::from_millis_f64(horizon.as_millis_f64() / 2.0);
        let options = RuntimeOptions::default()
            .tick(coserve::sim::time::SimSpan::from_millis_f64(
                (horizon.as_millis_f64() / 10.0).max(1.0),
            ))
            .failures(FailureSchedule::new().kill(2, mid))
            .feedback(FeedbackMode::Corrected)
            .online(AdmissionControl::with_queue_capacity(16), 16);
        cluster.serve_runtime(&stream, &options)
    };
    let (a, b) = (run(), run());
    // Field-level spot checks first, for diagnosable failures…
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.cross_node_hops, b.cross_node_hops);
    assert_eq!(a.dynamics.migrations, b.dynamics.migrations);
    assert_eq!(a.dynamics.migration_bytes, b.dynamics.migration_bytes);
    assert_eq!(a.dynamics.failures, b.dynamics.failures);
    assert_eq!(a.dynamics.ticks, b.dynamics.ticks);
    // …then the whole struct, bit for bit.
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    // The scenario genuinely exercised the dynamic machinery.
    assert_eq!(a.dynamics.failures.len(), 1);
    let failure = a.dynamics.failures[0];
    assert_eq!(failure.node, 2);
    assert!(failure.recovered_at.is_some(), "shard must re-replicate");
    assert!(a.recovery_time().unwrap() > SimSpan::ZERO);
    // The kill re-planned once, and the survivors reloaded the orphaned
    // shard from their own checkpoint stores.
    assert_eq!(a.dynamics.plan_versions, 1);
    assert!(a.dynamics.migrations > 0);
    assert!(
        a.dynamics.migration_bytes > coserve::sim::memory::Bytes::ZERO,
        "migration traffic must be charged"
    );
    assert_eq!(
        a.completed + a.failed + a.dropped,
        a.submitted,
        "jobs conserved through the kill"
    );
}

#[test]
fn closed_loop_cluster_completes_everything_and_utilizes_nodes() {
    let cluster = fleet(2, ClusterOptions::default());
    let task = TaskSpec::a1().scaled(0.08); // 200 requests
    let report = cluster.serve(&task.stream(cluster.model()));
    assert_eq!(report.completed, 200);
    assert_eq!(report.dropped, 0);
    let utilization = report.node_utilization();
    assert_eq!(utilization.len(), 2);
    assert!(
        utilization.iter().all(|&u| u > 0.0),
        "both nodes must do work: {utilization:?}"
    );
    assert!(report.summary_line().contains("2 nodes"));
}
