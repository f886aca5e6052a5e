//! `online-poisson`: one A1 node serving live traffic below capacity.
//!
//! `presets::coserve_online` (bounded queues, grouping starvation bound)
//! serves Board A requests in iid class order with Poisson arrivals at
//! [`NOMINAL_RPS`], streamed through `EngineSession::submit` /
//! `pump_until` in five-second slices. Queues stay shallow, so this
//! measures latency rather than capacity; iid order thrashes the pool.
//! The rate ladder replays the same streams at other rates.

use std::time::Duration;

use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_core::system::ServingSystem;
use coserve_metrics::report::RunReport;
use coserve_model::devices;
use coserve_sim::time::SimSpan;
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::RequestStream;

use crate::common::{self, SetupLayers, Workload};
use crate::engine::{self, EngineLayer, SimAgg};
use crate::spans::Recorder;
use crate::stats::{self, Rung, Weighted};

/// Offered load of the measured streams, requests per simulated second.
pub const NOMINAL_RPS: f64 = 4.0;
/// Requests per stream.
const STREAM_LEN: usize = 2_000;
const SLICE: SimSpan = SimSpan::from_secs(5);
/// Streams pooled per ladder rung.
const RUNG_STREAMS: usize = 32;
const TAG_STREAM: u64 = 0x0A_11;
const TAG_LADDER: u64 = 0x0A_12;

pub struct Setup {
    pub board: BoardSpec,
    pub system: ServingSystem,
}

/// Board A on the NUMA box under `presets::coserve_online`; returns the
/// set-up and the profiler's host time in ms.
pub fn build() -> Result<(Setup, f64), String> {
    let device = devices::numa_rtx3080ti();
    let board = BoardSpec::board_a();
    let model = board.build_model().map_err(|e| format!("model: {e}"))?;
    let (perf, profile_ms) = engine::time_ms(|| {
        Profiler::with_defaults().profile(&device, &model, UsageSource::Declared)
    });
    let system = ServingSystem::with_matrix(
        device.clone(),
        model,
        perf,
        presets::coserve_online(&device),
    )
    .map_err(|e| format!("system: {e}"))?;
    Ok((Setup { board, system }, profile_ms))
}

/// Serves the first `streams` ladder streams at `rate` with `serve`
/// and pools them.
pub fn ladder_streams(
    s: &Setup,
    seed: u64,
    rate: f64,
    streams: usize,
    mut serve: impl FnMut(&RequestStream) -> Result<RunReport, String>,
) -> Result<SimAgg, String> {
    let mut agg = SimAgg::default();
    for i in 0..streams {
        let seed = stats::derive_seed(seed, TAG_LADDER, i as u64);
        let stream = common::poisson_stream(&s.board, s.system.model(), STREAM_LEN, rate, seed);
        let report = serve(&stream)?;
        engine::check_totals(&report, stream.len())?;
        agg.absorb_run(&report, stream.len());
    }
    Ok(agg)
}

pub struct OnlinePoisson;

impl Workload for OnlinePoisson {
    type Setup = Setup;
    const SIM_REPS: usize = 128;

    fn setup() -> Result<(Setup, SetupLayers), String> {
        let (s, profile_ms) = build()?;
        Ok((s, vec![("profiler.profile_ms", profile_ms)]))
    }

    /// Also `wire-loopback`'s ladder, on the wire's own seeds.
    fn ladder(s: &Setup, seed: u64) -> Result<(Option<f64>, Vec<Rung>, usize), String> {
        let mut samples = 0;
        let (best, rungs) = stats::refined_ladder(1.0, 12.0, 0.5, 0.1, |rate| {
            let agg = ladder_streams(s, seed, rate, RUNG_STREAMS, |stream| {
                Ok(s.system.serve(stream))
            })?;
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
        let seed = stats::derive_seed(seed, TAG_STREAM, i as u64);
        let stream =
            common::poisson_stream(&s.board, s.system.model(), STREAM_LEN, NOMINAL_RPS, seed);
        let span = rec.open("online.session", None, i as u64);
        let served = engine::serve_session(&s.system, &stream, SLICE, rtt_us, layer, rec, span)?;
        rec.close(span);
        if let Some(sim) = sim {
            sim.absorb_run(&served.report, stream.len());
        }
        Ok((served.report.completed as u64, served.wall))
    }
}
