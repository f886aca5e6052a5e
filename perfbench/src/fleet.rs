//! `cluster-fleet`: four NUMA nodes sharing A1 traffic.
//!
//! `ClusterSystem::homogeneous` builds four identical nodes with
//! usage-aware placement, residency-first routing and 10 GbE links; each
//! rep serves an iid Poisson A1 stream at [`FLEET_RPS`] through
//! `ClusterSystem::serve_with_online` (one control tick). Sharding keeps experts resident, so placement and dispatch do
//! the extra work here, not the pool.

use std::time::{Duration, Instant};

use coserve_cluster::runtime::RuntimeOptions;
use coserve_cluster::{ClusterOptions, ClusterSystem};
use coserve_core::config::AdmissionControl;
use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_metrics::cluster::ClusterReport;
use coserve_model::devices;
use coserve_sim::network::LinkProfile;
use coserve_trace::{RingTracer, Tracer};
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::RequestStream;

use crate::common::{self, SetupLayers, Workload};
use crate::engine::{self, EngineLayer, SimAgg};
use crate::online::NOMINAL_RPS;
use crate::spans::Recorder;
use crate::stats::{self, Metric, Rung, Weighted};

pub const NODES: usize = 4;
/// Offered load of the measured streams: twelve times the single-node
/// nominal rate. Sharding leaves the fleet far from busy at lower rates,
/// where every median request is one bare stage execution on every seed.
const FLEET_RPS: f64 = 12.0 * NOMINAL_RPS;
/// Requests per stream.
const STREAM_LEN: usize = 4_000;
/// Streams pooled per ladder rung.
const RUNG_STREAMS: usize = 32;
/// Times the profiler is timed on its own in a traced run.
const PROFILE_REPS: usize = 9;
const TAG_STREAM: u64 = 0xC1_01;
const TAG_LADDER: u64 = 0xC1_02;

pub struct Setup {
    board: BoardSpec,
    cluster: ClusterSystem,
}

fn online() -> (AdmissionControl, u32) {
    (AdmissionControl::default(), presets::ONLINE_MAX_OVERTAKE)
}

fn stream(s: &Setup, n: usize, rate: f64, seed: u64) -> RequestStream {
    common::poisson_stream(&s.board, s.cluster.model(), n, rate, seed)
}

/// Conservation across the fleet: every request was routed or refused
/// at the front-end, and every routed one ended exactly once.
fn check_fleet(r: &ClusterReport, attempted: usize) -> Result<(), String> {
    let front = r.dynamics.routing_dropped + r.dynamics.paced_shed as usize;
    if r.submitted + front != attempted {
        return Err(format!(
            "fleet saw {} routed + {front} refused of {attempted}",
            r.submitted
        ));
    }
    for node in &r.nodes {
        engine::check_totals(node, node.submitted)?;
    }
    if r.completed + r.failed + r.dropped != r.submitted {
        return Err(format!(
            "fleet conservation: {} routed != {} completed + {} failed + {} dropped",
            r.submitted, r.completed, r.failed, r.dropped
        ));
    }
    Ok(())
}

pub struct ClusterFleet;

impl Workload for ClusterFleet {
    type Setup = Setup;
    const SIM_REPS: usize = 48;

    fn setup() -> Result<(Setup, SetupLayers), String> {
        let device = devices::numa_rtx3080ti();
        let board = BoardSpec::board_a();
        let model = board.build_model().map_err(|e| format!("model: {e}"))?;
        let (cluster, placement_ms) = engine::time_ms(|| {
            ClusterSystem::homogeneous(
                NODES,
                &device,
                &presets::coserve(&device),
                &model,
                LinkProfile::ethernet_10g(),
                ClusterOptions::default(),
            )
        });
        let cluster = cluster.map_err(|e| format!("cluster: {e}"))?;
        Ok((
            Setup { board, cluster },
            vec![("placement.build_ms", placement_ms)],
        ))
    }

    fn setup_probe(s: &Setup) -> Result<SetupLayers, String> {
        // The fleet profiles inside `homogeneous`; time the profiler on
        // its own with the same device and model.
        let node = &s.cluster.nodes()[0];
        Ok((0..PROFILE_REPS)
            .map(|_| {
                let (perf, ms) = engine::time_ms(|| {
                    Profiler::with_defaults().profile(
                        node.device(),
                        node.model(),
                        UsageSource::Declared,
                    )
                });
                std::hint::black_box(perf);
                ("profiler.profile_ms", ms)
            })
            .collect())
    }

    fn ladder(s: &Setup, seed: u64) -> Result<(Option<f64>, Vec<Rung>, usize), String> {
        let (admission, overtake) = online();
        let mut samples = 0;
        let nodes = NODES as f64;
        let (best, rungs) =
            stats::refined_ladder(nodes, 100.0 * nodes, 2.0 * nodes, 0.4 * nodes, |rate| {
                let mut agg = SimAgg::default();
                for i in 0..RUNG_STREAMS {
                    let stream = stream(
                        s,
                        STREAM_LEN,
                        rate,
                        stats::derive_seed(seed, TAG_LADDER, i as u64),
                    );
                    let report = s.cluster.serve_with_online(&stream, admission, overtake);
                    check_fleet(&report, stream.len())?;
                    agg.absorb_cluster(&report, stream.len());
                }
                samples = agg.outcomes.attempted as usize;
                Ok(agg.rung(rate))
            })?;
        Ok((best, rungs, samples))
    }

    fn rep(
        s: &Setup,
        seed: u64,
        i: usize,
        rtt_us: &mut Weighted,
        layer: Option<&mut EngineLayer>,
        sim: Option<&mut SimAgg>,
        rec: &mut Recorder,
    ) -> Result<(u64, Duration), String> {
        let (admission, overtake) = online();
        let stream = stream(
            s,
            STREAM_LEN,
            FLEET_RPS,
            stats::derive_seed(seed, TAG_STREAM, i as u64),
        );
        let t0 = Instant::now();
        let report = match layer {
            None => s.cluster.serve_with_online(&stream, admission, overtake),
            Some(layer) => {
                // The same single-tick run with a ring on the fleet's
                // control events.
                let mut ring = RingTracer::new();
                let options = RuntimeOptions::default().online(admission, overtake);
                let report = s.cluster.serve_runtime_traced(&stream, &options, &mut ring);
                let t1 = Instant::now();
                rec.record("cluster.serve", t0, t1, None, i as u64);
                layer
                    .serve_ns_per_req
                    .push(t1.duration_since(t0).as_nanos() as f64 / stream.len() as f64);
                layer.requests += stream.len() as u64;
                layer.trace_events += ring.drain().len() as u64;
                layer.ring_dropped += ring.dropped();
                if ring.dropped() != 0 {
                    return Err(format!(
                        "the fleet's trace ring dropped {} events",
                        ring.dropped()
                    ));
                }
                report
            }
        };
        let wall = t0.elapsed();
        // Every request reaches the caller when the serve call returns.
        rtt_us.push(wall.as_secs_f64() * 1e6, stream.len() as u64);
        check_fleet(&report, stream.len())?;
        if let Some(sim) = sim {
            sim.absorb_cluster(&report, stream.len());
        }
        Ok((report.completed as u64, wall))
    }

    fn extra_layers(layer: &EngineLayer, out: &mut Vec<Metric>) {
        if !layer.serve_ns_per_req.is_empty() {
            out.push(Metric::new(
                "cluster.serve_ns_per_req",
                "ns",
                stats::median(&layer.serve_ns_per_req),
                layer.serve_ns_per_req.len(),
            ));
        }
    }
}
