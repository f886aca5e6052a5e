//! Cluster-scale serving: scale a CoE model out across a fleet and
//! sweep placement strategies and routing policies.
//!
//! ```sh
//! cargo run --release --example cluster_serving
//! ```
//!
//! One NUMA box saturates well below production traffic. This example
//! offers the same overload stream to fleets of 1, 2 and 4 nodes and
//! shows (a) throughput scaling with fleet size, (b) how placement
//! decides cross-node hop counts (replicated = none, sharded = many,
//! usage-aware = few), and (c) how residency-first routing keeps expert
//! chains local where round-robin ships activations over the fabric.
//!
//! It then switches to the *dynamic* cluster runtime: a 4-node fleet
//! loses a node at the midpoint of the run, the planner re-replicates
//! the dead node's orphaned shard over the fabric, the requests it had
//! not finished re-route, and the per-tick timeline shows the SLO dip
//! around the failure and the recovery.

use coserve::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task = TaskSpec::a1();
    let model = task.build_model()?;
    let device = devices::numa_rtx3080ti();
    let config = presets::coserve(&device);

    // Overload: ~4000 rps against nodes that saturate far lower, with
    // shallow admission queues so undersized fleets shed load.
    let options = OpenLoopOptions::new(ArrivalProcess::poisson(4_000.0))
        .requests(600)
        .admission(AdmissionControl::with_queue_capacity(16));

    println!(
        "Cluster serving of {} on fleets of {}\n",
        task.name(),
        device.name()
    );
    println!(
        "{:>5}  {:<12} {:<16} {:>8} {:>8} {:>7} {:>7} {:>9}",
        "nodes", "placement", "route", "img/s", "speedup", "drop%", "hops", "util"
    );

    let mut base_throughput = None;
    for nodes in [1usize, 2, 4] {
        for placement in [
            PlacementStrategy::UsageAware,
            PlacementStrategy::Replicated,
            PlacementStrategy::Sharded,
        ] {
            for route in [RoutePolicy::ResidencyFirst, RoutePolicy::RoundRobin] {
                // The single-node fleet is one row: placement/routing
                // are moot when everything is local.
                if nodes == 1
                    && (placement != PlacementStrategy::UsageAware
                        || route != RoutePolicy::ResidencyFirst)
                {
                    continue;
                }
                let cluster = ClusterSystem::homogeneous(
                    nodes,
                    &device,
                    &config,
                    &model,
                    LinkProfile::ethernet_10g(),
                    ClusterOptions::default().placement(placement).route(route),
                )?;
                let report = serve_cluster(&cluster, task.board(), &options);
                let base = *base_throughput.get_or_insert(report.throughput_ips());
                let utilization = report.node_utilization();
                let mean_util = utilization.iter().sum::<f64>() / utilization.len().max(1) as f64;
                println!(
                    "{:>5}  {:<12} {:<16} {:>8.1} {:>7.2}x {:>6.1}% {:>7} {:>8.1}%",
                    nodes,
                    placement.to_string(),
                    route.to_string(),
                    report.throughput_ips(),
                    report.throughput_ips() / base,
                    100.0 * report.drop_rate(),
                    report.cross_node_hops,
                    100.0 * mean_util,
                );
            }
        }
    }

    // ── Dynamic runtime: node failure at the midpoint ───────────────
    let cluster = ClusterSystem::homogeneous(
        4,
        &device,
        &config,
        &model,
        LinkProfile::ethernet_10g(),
        ClusterOptions::default(),
    )?;
    let stream = open_loop_stream(&model, task.board(), &options);
    let horizon = stream.last_arrival().saturating_since(SimTime::ZERO);
    let midpoint = SimTime::ZERO + SimSpan::from_millis_f64(horizon.as_millis_f64() / 2.0);
    let slo = SimSpan::from_millis(250);
    // Nine control ticks; the midpoint kill lands mid-tick, and
    // whatever the dying node has queued or in flight at that instant
    // re-routes to the survivors.
    let runtime = RuntimeOptions::default()
        .tick(SimSpan::from_millis_f64(
            (horizon.as_millis_f64() / 9.0).max(1.0),
        ))
        .failures(FailureSchedule::new().kill(1, midpoint))
        .replacement(ReplacementPolicy::OnFailure)
        .feedback(FeedbackMode::Corrected)
        .slo(slo)
        .online(options.admission, 16);
    let report = cluster.serve_runtime(&stream, &runtime);

    println!(
        "\nFailure injection: node-1 dies at {midpoint} (midpoint of a {}-request run)",
        report.submitted
    );
    match report.recovery_time() {
        Some(recovery) => println!(
            "  recovered in {recovery}: {} expert copies ({:.0} MiB) re-replicated over the fabric, {} requests re-routed",
            report.dynamics.migrations,
            report.dynamics.migration_bytes.as_mib_f64(),
            report.dynamics.rerouted,
        ),
        None => println!("  never recovered (static placement)"),
    }
    // SLO attainment before vs after the failure, over the requests
    // that ended (completed or dropped) in each tick of the timeline.
    let (mut met_before, mut ended_before) = (0usize, 0usize);
    let (mut met_after, mut ended_after) = (0usize, 0usize);
    for tick in &report.dynamics.ticks {
        if tick.end <= midpoint {
            met_before += tick.slo_met;
            ended_before += tick.completed + tick.dropped;
        } else {
            met_after += tick.slo_met;
            ended_after += tick.completed + tick.dropped;
        }
    }
    let pct = |met: usize, ended: usize| {
        if ended == 0 {
            0.0
        } else {
            100.0 * met as f64 / ended as f64
        }
    };
    println!(
        "  SLO ({slo}) attainment: {:.1}% before the failure, {:.1}% after (recovery + lost capacity)",
        pct(met_before, ended_before),
        pct(met_after, ended_after),
    );
    // The nodes keep their queues across ticks, so the timeline runs on
    // past the last arrival while the survivors drain their backlog;
    // show the ticks around the failure and summarize the drain.
    let ticks = &report.dynamics.ticks;
    let failure_tick = ticks
        .iter()
        .find(|t| t.start <= midpoint && midpoint < t.end)
        .map_or(0, |t| t.index);
    let (around, drain): (Vec<&TickStat>, Vec<&TickStat>) =
        ticks.iter().partition(|t| t.index <= failure_tick + 4);
    println!("  per-tick p95 around the failure:");
    for tick in around {
        let marker = if tick.index == failure_tick {
            "  <- node-1 dies"
        } else {
            ""
        };
        println!(
            "    tick {:>2} [{} .. {}]: routed {:>3}, completed {:>3}, dropped {:>3}, p95 {:>8}{}",
            tick.index,
            tick.start,
            tick.end,
            tick.routed,
            tick.completed,
            tick.dropped,
            tick.p95_ms
                .map_or_else(|| "-".into(), |p| format!("{p:.0} ms")),
            marker,
        );
    }
    if let Some(last) = drain.last() {
        println!(
            "    ... {} more ticks ended work ({} completed, {} dropped) until {}",
            drain.len(),
            drain.iter().map(|t| t.completed).sum::<usize>(),
            drain.iter().map(|t| t.dropped).sum::<usize>(),
            last.end,
        );
    }

    // The whole report — fleet totals, runtime dynamics and per-node
    // reports — as one JSON document on one line.
    println!(
        "\nMachine-readable report (ClusterReport::to_json):\n{}",
        report.to_json()
    );

    println!("\nEverything above is deterministic: rerun for identical numbers.");
    Ok(())
}
