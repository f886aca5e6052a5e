//! `offline-paper`: the paper's capacity experiment (Fig. 13).
//!
//! The `presets::coserve` NUMA system serves freshly seeded instances of
//! the four paper task streams (A1, A2, B1, B2; board order; one image
//! every 4 ms) at their paper length, each in a fresh session streamed
//! in one-second slices. Arrivals outpace capacity about tenfold, so
//! queues stay deep and the expert pool is under pressure. The rate
//! ladder re-times the same streams as slower conveyors.

use std::time::Duration;

use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_core::system::ServingSystem;
use coserve_model::devices;
use coserve_sim::time::SimSpan;
use coserve_workload::stream::{RequestStream, StreamOrder};
use coserve_workload::task::TaskSpec;

use crate::common::{SetupLayers, Workload};
use crate::engine::{self, EngineLayer, SimAgg};
use crate::spans::Recorder;
use crate::stats::{self, Rung, Weighted};

const SLICE: SimSpan = SimSpan::from_secs(1);
/// Instances of the four tasks pooled per ladder rung.
const RUNG_INSTANCES: usize = 2;
const TAG_INSTANCE: u64 = 0x0F_F1;
const TAG_LADDER: u64 = 0x0F_F2;

pub struct Setup {
    tasks: Vec<TaskSpec>,
    /// One system per task (tasks on the same board share one).
    systems: Vec<ServingSystem>,
}

/// A freshly seeded stream of `task` at its paper length.
fn stream(task: &TaskSpec, system: &ServingSystem, interval: SimSpan, seed: u64) -> RequestStream {
    RequestStream::generate(
        task.name(),
        task.board(),
        system.model(),
        task.num_requests(),
        interval,
        StreamOrder::BoardOrder,
        seed,
    )
}

pub struct OfflinePaper;

impl Workload for OfflinePaper {
    type Setup = Setup;
    const SIM_REPS: usize = 16;

    fn setup() -> Result<(Setup, SetupLayers), String> {
        let device = devices::numa_rtx3080ti();
        let tasks = TaskSpec::paper_tasks();
        let mut systems: Vec<ServingSystem> = Vec::with_capacity(tasks.len());
        let mut profile_ms = 0.0;
        for (i, task) in tasks.iter().enumerate() {
            if let Some(j) = tasks[..i].iter().position(|t| t.board() == task.board()) {
                systems.push(systems[j].clone());
                continue;
            }
            let model = task.build_model().map_err(|e| format!("model: {e}"))?;
            let (perf, ms) = engine::time_ms(|| {
                Profiler::with_defaults().profile(&device, &model, UsageSource::Declared)
            });
            profile_ms += ms;
            let system =
                ServingSystem::with_matrix(device.clone(), model, perf, presets::coserve(&device))
                    .map_err(|e| format!("system: {e}"))?;
            systems.push(system);
        }
        Ok((
            Setup { tasks, systems },
            vec![("profiler.profile_ms", profile_ms)],
        ))
    }

    fn ladder(s: &Setup, seed: u64) -> Result<(Option<f64>, Vec<Rung>, usize), String> {
        let mut samples = 0;
        let (best, rungs) = stats::refined_ladder(1.0, 24.0, 1.0, 0.2, |rate| {
            let interval = SimSpan::from_secs_f64(1.0 / rate);
            let mut agg = SimAgg::default();
            for k in 0..RUNG_INSTANCES * s.tasks.len() {
                let t = k % s.tasks.len();
                let (task, system) = (&s.tasks[t], &s.systems[t]);
                let stream = stream(
                    task,
                    system,
                    interval,
                    stats::derive_seed(seed, TAG_LADDER, k as u64),
                );
                let report = system.serve(&stream);
                engine::check_totals(&report, stream.len())?;
                agg.absorb_run(&report, stream.len());
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
        mut layer: Option<&mut EngineLayer>,
        mut sim: Option<&mut SimAgg>,
        rec: &mut Recorder,
    ) -> Result<(u64, Duration), String> {
        let (mut completed, mut wall) = (0, Duration::ZERO);
        for (t, (task, system)) in s.tasks.iter().zip(&s.systems).enumerate() {
            let seed = stats::derive_seed(seed, TAG_INSTANCE, (i * s.tasks.len() + t) as u64);
            let stream = stream(task, system, task.interval(), seed);
            let span = rec.open("offline.session", None, i as u64);
            let served = engine::serve_session(
                system,
                &stream,
                SLICE,
                rtt_us,
                layer.as_deref_mut(),
                rec,
                span,
            )?;
            rec.close(span);
            completed += served.report.completed as u64;
            wall += served.wall;
            if let Some(sim) = sim.as_deref_mut() {
                sim.absorb_run(&served.report, stream.len());
            }
        }
        Ok((completed, wall))
    }
}
