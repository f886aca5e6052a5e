//! What every workload shares: the run context, repeated set-up, the
//! timed host loop, and the end-of-run metric assembly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use coserve_model::coe::CoeModel;
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::{RequestStream, StreamOrder};

use crate::engine::{EngineLayer, SimAgg};
use crate::spans::Recorder;
use crate::stats::{self, Metric, Outcomes, Rung, Weighted};

/// One benchmark run's inputs.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rec: Recorder,
}

/// A workload's results: the outcome counts of everything it attempted,
/// the end-to-end metrics, and the per-layer metrics of a traced run.
#[derive(Debug, Default)]
pub struct Results {
    pub outcomes: Outcomes,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

/// Set-up timings of one run. The host this benchmark runs on changes
/// speed for seconds at a time, so set-up is repeated between the
/// measured trials, not only once up front, and `setup_s` is the
/// fastest of all of them: their median follows the host's speed mode
/// of the moment (it spread by a third between runs of `offline-paper`),
/// while every set-up, the fastest included, pays for work moved into it.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub secs: Vec<f64>,
}

impl SetupTimes {
    /// Times one `build` and keeps its result.
    pub fn time<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let built = build()?;
        self.secs.push(t0.elapsed().as_secs_f64());
        Ok(built)
    }

    pub fn metric(&self) -> Metric {
        let best = self.secs.iter().copied().fold(f64::INFINITY, f64::min);
        Metric::new("setup_s", "s", best, self.secs.len())
    }
}

/// One trial of the measured phase: about [`TRIAL`] of host time.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    pub rps: f64,
    pub rtt_p50_us: f64,
    pub rtt_p99_us: f64,
    /// Round trips in the trial, and the highest percentile they carry.
    pub samples: u64,
    pub tail: (f64, f64),
}

impl Trial {
    /// A trial's figures from its requests, host time and round trips.
    pub fn of(requests: u64, host_s: f64, rtt_us: &mut Weighted) -> Result<Trial, String> {
        let samples = rtt_us.len();
        let too_few = || format!("a trial's {samples} round trips cannot carry a p99");
        Ok(Trial {
            rps: requests as f64 / host_s,
            rtt_p50_us: rtt_us.percentile(50.0).ok_or_else(too_few)?,
            rtt_p99_us: rtt_us.percentile(99.0).ok_or_else(too_few)?,
            samples,
            tail: rtt_us.tail().ok_or_else(too_few)?,
        })
    }
}

/// Host time grouped into one trial.
pub const TRIAL: Duration = Duration::from_millis(50);

/// Round trips a trial needs before it closes: enough for a p99 with ten
/// samples beyond it.
pub const TRIAL_SAMPLES: u64 = 1_000;

/// How a run's trials become its host-time metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Summary {
    /// The best trial for each metric (highest `host_rps`, lowest
    /// round-trip percentiles): the run's least-disturbed measurement.
    /// In process, a trial is one thread's work and the best one tracks
    /// the program's cost.
    Best,
    /// The median trial for each metric. On the wire the best trial
    /// tracks where the scheduler happened to place the client and
    /// server threads for a moment, not the program's cost.
    Median,
}

/// The host-time end-to-end metrics from a run's trials, summarised by
/// `summary`.
pub fn host_metrics(
    trials: &[Trial],
    summary: Summary,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    if trials.is_empty() {
        return Err("no complete measurement trial".into());
    }
    let n = trials.len();
    let pick = |f: fn(&Trial) -> f64, higher_is_better: bool| {
        let values: Vec<f64> = trials.iter().map(f).collect();
        match (summary, higher_is_better) {
            (Summary::Median, _) => stats::median(&values),
            (Summary::Best, true) => values.into_iter().fold(0.0, f64::max),
            (Summary::Best, false) => values.into_iter().fold(f64::INFINITY, f64::min),
        }
    };
    out.push(Metric::new("host_rps", "req/s", pick(|t| t.rps, true), n));
    out.push(Metric::new(
        "host_rtt_p50_us",
        "us",
        pick(|t| t.rtt_p50_us, false),
        n,
    ));
    out.push(Metric::new(
        "host_rtt_p99_us",
        "us",
        pick(|t| t.rtt_p99_us, false),
        n,
    ));
    let rps: Vec<f64> = trials.iter().map(|t| t.rps).collect();
    let fastest = trials
        .iter()
        .max_by(|a, b| a.rps.total_cmp(&b.rps))
        .ok_or("no trial")?;
    println!(
        "host phase: {summary:?} of {n} trials reported; median trial {:.1} req/s; fastest trial {} round trips, p50 {:.3} us, p{} {:.3} us",
        stats::median(&rps),
        fastest.samples,
        fastest.rtt_p50_us,
        fastest.tail.0,
        fastest.tail.1
    );
    Ok(())
}

/// Host-side figures of the measured phase.
#[derive(Debug, Default)]
pub struct HostPhase {
    pub trials: Vec<Trial>,
}

impl HostPhase {
    /// Repeats `rep(i)` (returning requests completed and host time)
    /// until `seconds` have passed, at least `min_reps` times, grouping
    /// reps into trials of at least [`TRIAL`] host time and
    /// [`TRIAL_SAMPLES`] round trips. After each trial `between` runs,
    /// outside the trial's time.
    pub fn run(
        seconds: f64,
        min_reps: usize,
        mut rep: impl FnMut(usize, &mut Weighted) -> Result<(u64, Duration), String>,
        mut between: impl FnMut() -> Result<(), String>,
    ) -> Result<HostPhase, String> {
        let mut phase = HostPhase::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (mut done, mut wall, mut rtt) = (0u64, Duration::ZERO, Weighted::default());
        let mut i = 0;
        while i < min_reps || Instant::now() < deadline {
            let (completed, took) = rep(i, &mut rtt)?;
            done += completed;
            wall += took;
            i += 1;
            if wall >= TRIAL && rtt.len() >= TRIAL_SAMPLES {
                phase
                    .trials
                    .push(Trial::of(done, wall.as_secs_f64(), &mut rtt)?);
                (done, wall, rtt) = (0, Duration::ZERO, Weighted::default());
                between()?;
            }
        }
        Ok(phase)
    }

    /// The best trial's throughput.
    pub fn best_rps(&self) -> f64 {
        self.trials.iter().map(|t| t.rps).fold(0.0, f64::max)
    }

    pub fn metrics(&self, out: &mut Vec<Metric>) -> Result<(), String> {
        host_metrics(&self.trials, Summary::Best, out)
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in process status")?;
    Ok(kib / 1024.0)
}

/// An independent-class (iid) stream with Poisson arrivals at `rate`.
pub fn poisson_stream(
    board: &BoardSpec,
    model: &CoeModel,
    n: usize,
    rate: f64,
    seed: u64,
) -> RequestStream {
    RequestStream::generate_open_loop(
        format!("poisson {rate} rps #{seed:x}"),
        board,
        model,
        n,
        ArrivalProcess::poisson(rate),
        StreamOrder::Iid,
        seed,
    )
}

/// Host times (ms) of named layers inside one set-up.
pub type SetupLayers = Vec<(&'static str, f64)>;

/// An in-process workload: set-up, a deterministic rate ladder, and a
/// repeatable unit of work (one "rep") whose first [`Workload::SIM_REPS`]
/// repetitions make up the simulated-metric sample.
pub trait Workload {
    type Setup;
    /// Repetitions pooled into the simulated metrics.
    const SIM_REPS: usize;

    /// Builds everything up to the first request. Returns the set-up and
    /// the host time (ms) of named set-up layers inside it.
    fn setup() -> Result<(Self::Setup, SetupLayers), String>;

    /// Set-up layers timed outside the set-up (traced runs only).
    fn setup_probe(_s: &Self::Setup) -> Result<SetupLayers, String> {
        Ok(Vec::new())
    }

    /// The rate ladder: every rung evaluated, and the samples per rung.
    fn ladder(s: &Self::Setup, seed: u64) -> Result<(Option<f64>, Vec<Rung>, usize), String>;

    /// Rep `i` of the workload: requests completed and the host time of
    /// the program calls. With `layer` the rep is traced.
    fn rep(
        s: &Self::Setup,
        seed: u64,
        i: usize,
        rtt_us: &mut Weighted,
        layer: Option<&mut EngineLayer>,
        sim: Option<&mut SimAgg>,
        rec: &mut Recorder,
    ) -> Result<(u64, Duration), String>;

    /// Layer metrics of a traced run besides the engine's own.
    fn extra_layers(_layer: &EngineLayer, _out: &mut Vec<Metric>) {}
}

/// Runs an in-process workload: repeated set-up, the rate ladder, the
/// timed host phase and, when tracing, a traced second phase.
pub fn run_workload<W: Workload>(ctx: &mut Ctx, name: &str) -> Result<Results, String> {
    let mut setup_layers = SetupLayers::new();
    let mut setups = SetupTimes::default();
    let (s, layers) = setups.time(W::setup)?;
    setup_layers.extend(layers);
    let mut out = Results::default();
    let seed = ctx.seed;
    if !ctx.trace {
        let (best, rungs, samples) = W::ladder(&s, seed)?;
        eprintln!("{name} ladder: {}", describe(&rungs));
        let rate = best.ok_or("the lowest ladder rate already misses the SLO")?;
        out.e2e
            .push(Metric::new("max_rate_at_slo_rps", "req/s", rate, samples));
    }

    let mut sim = SimAgg::default();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let host = HostPhase::run(
        seconds,
        W::SIM_REPS,
        |i, rtt| {
            let sim = (i < W::SIM_REPS).then_some(&mut sim);
            W::rep(&s, seed, i, rtt, None, sim, &mut ctx.rec)
        },
        || {
            let (_, layers) = setups.time(W::setup)?;
            setup_layers.extend(layers);
            Ok(())
        },
    )?;
    out.outcomes = sim.outcomes;
    out.e2e.insert(0, setups.metric());
    host.metrics(&mut out.e2e)?;
    sim.quality(&mut out.e2e)?;

    if ctx.trace {
        let mut layer = EngineLayer::default();
        let traced = HostPhase::run(
            seconds,
            1,
            |i, rtt| {
                W::rep(
                    &s,
                    seed,
                    W::SIM_REPS + i,
                    rtt,
                    Some(&mut layer),
                    None,
                    &mut ctx.rec,
                )
            },
            || Ok(()),
        )?;
        setup_layers.extend(W::setup_probe(&s)?);
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (name, ms) in setup_layers {
            by_name.entry(name).or_default().push(ms);
        }
        for (name, times) in by_name {
            let best = times.iter().copied().fold(f64::INFINITY, f64::min);
            out.layers.push(Metric::new(name, "ms", best, times.len()));
        }
        sim.layers(&mut out.layers);
        layer.metrics(&mut out.layers);
        W::extra_layers(&layer, &mut out.layers);
        if !out.layers.iter().any(|m| m.name == "wire.frames_per_req") {
            out.layers
                .push(Metric::new("wire.frames_per_req", "count", 0.0, 0));
        }
        out.layers.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            traced.best_rps() / host.best_rps(),
            traced.trials.len(),
        ));
    }
    Ok(out)
}

/// One line per evaluated ladder rung.
pub fn describe(rungs: &[Rung]) -> String {
    rungs
        .iter()
        .map(|r| {
            let verdict = if r.passes() { "" } else { "(miss)" };
            format!(
                "{}rps:p99={:.0}ms,lost={}{verdict}",
                r.rate,
                r.p99_ms,
                r.dropped + r.failed
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}
