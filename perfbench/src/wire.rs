//! `wire-loopback`: the engine behind `coserve-server` on 127.0.0.1.
//!
//! An in-process `Server` with two workers fronts a `ServiceCore` over
//! one `presets::coserve_online` A1 session. The measured phase drives it
//! closed-loop from two client connections, each on its own thread, in
//! rounds of [`BATCH`] `Submit` frames and one `Pump` and one `Poll`;
//! beside them the segment's own thread reads the admin `/stats` page
//! every [`SCRAPE_EVERY`]. The realized schedule is rebuilt from the completions and replayed
//! through `ServingSystem::serve`, which must give bit-identical
//! latencies.
//!
//! The simulated metrics come from open-loop streams at the nominal rate
//! sent over the wire on one pipelined connection, so they are
//! reproducible from the seed; each is checked job by job against an
//! in-process session. The rate ladder is `online-poisson`'s, run
//! in-process on the wire's own seeds, with its deciding rung re-served
//! over the wire and checked the same way.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use coserve_core::engine::CompletionStatus;
use coserve_core::system::ServingSystem;
use coserve_metrics::attribution::LatencyAttribution;
use coserve_metrics::report::RunReport;
use coserve_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, WireCompletion,
};
use coserve_server::server::{Server, ServerConfig};
use coserve_server::service::ServiceCore;
use coserve_sim::time::SimTime;
use coserve_trace::{RingTracer, TraceEvent};
use coserve_workload::stream::{Job, JobId, RequestStream};

use crate::common::{self, Ctx, Results, SetupTimes, Summary, Trial, Workload};
use crate::engine::{self, SimAgg};
use crate::online::{self, NOMINAL_RPS};
use crate::spans::Recorder;
use crate::stats::{self, Metric, Outcomes, Weighted};

/// Server worker threads.
const WORKERS: usize = 2;
/// Closed-loop client connections, one thread each.
const CONNS: usize = 2;
/// Closed-loop requests per round on one connection: `BATCH` submit
/// frames in one write, then one `Pump` and one `Poll` for all of them.
/// A round then costs the program's work on the whole batch plus six
/// thread wake-ups, not six wake-ups per request.
const BATCH: usize = 32;
/// The segment's own thread reads `/stats` this often while the
/// connections run.
const SCRAPE_EVERY: Duration = Duration::from_millis(25);
/// Closed-loop requests per connection in one segment (a fresh server
/// and session). A count, not a time, so every segment does the same
/// work and holds the same memory however fast the host runs.
const SEGMENT_REQS: usize = 64 * BATCH;
/// The socket-free service replay takes an engine snapshot every this
/// many requests.
const SNAPSHOT_EVERY: usize = 256;
/// Nominal-rate streams sent over the wire for the simulated metrics.
const SIM_STREAMS: usize = 32;
/// Requests per nominal-rate stream.
const SIM_STREAM_LEN: usize = 4_000;
/// Submit frames written before their answers are read.
const PIPELINE: usize = 256;
const TAG_SIM: u64 = 0x3E_01;
const TAG_CLOSED: u64 = 0x3E_02;
const TAG_LADDER: u64 = 0x3E_03;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// What a server run left behind once it shut down.
struct ServerRun<R> {
    out: R,
    report: RunReport,
    frames: u64,
    protocol_errors: u64,
    trace: Vec<TraceEvent>,
    ring_dropped: u64,
}

/// Runs `f` against a fresh server over a fresh session of `system`,
/// then shuts the server down, joins it, and consumes the core.
fn with_server<R>(
    system: &ServingSystem,
    traced: bool,
    f: impl FnOnce(SocketAddr, SocketAddr, &ServiceCore<'_>) -> Result<R, String>,
) -> Result<ServerRun<R>, String> {
    let mut session = system.session("wire");
    if traced {
        session.set_tracer(Box::new(RingTracer::new()));
    }
    let core = ServiceCore::new(session, system.model().num_experts());
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).map_err(io_err("bind"))?;
    let data = server.data_addr().map_err(io_err("data address"))?;
    let admin = server.admin_addr().map_err(io_err("admin address"))?;
    let (out, served) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&core));
        let out = f(data, admin, &core);
        server.shutdown();
        let served = handle.join();
        (out, served)
    });
    match served {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    let out = out?;
    let trace = core.drain_trace();
    let (_, ring_dropped, _) = core.trace_counters();
    let counters = server.counters();
    Ok(ServerRun {
        out,
        report: core.into_report(),
        frames: counters.frames.load(Ordering::Relaxed),
        protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
        trace,
        ring_dropped,
    })
}

/// Sends `stream` open-loop on one connection, `PIPELINE` submits at a
/// time, then pumps to idle and polls everything back.
fn open_loop(addr: SocketAddr, stream: &RequestStream) -> Result<Vec<WireCompletion>, String> {
    let socket = TcpStream::connect(addr).map_err(io_err("connect"))?;
    socket.set_nodelay(true).map_err(io_err("nodelay"))?;
    let mut writer = socket.try_clone().map_err(io_err("clone socket"))?;
    let mut reader = BufReader::new(socket);
    if !matches!(
        call(&mut writer, &mut reader, &Request::Hello)?,
        Response::Hello { .. }
    ) {
        return Err("bad hello answer".into());
    }
    let mut next = 0u32;
    for chunk in stream.jobs().chunks(PIPELINE) {
        let mut frames = Vec::new();
        for job in chunk {
            let req = Request::Submit {
                arrival: job.arrival,
                stages: job.stages.clone(),
            };
            write_frame(&mut frames, &encode_request(&req)).map_err(io_err("frame"))?;
        }
        writer.write_all(&frames).map_err(io_err("send"))?;
        for _ in chunk {
            match read_answer(&mut reader)? {
                Response::Submit { job } if job == next => next += 1,
                other => return Err(format!("submit {next} answered {other:?}")),
            }
        }
    }
    match call(&mut writer, &mut reader, &Request::Pump { limit: None })? {
        Response::Pump { pending: 0, .. } => {}
        other => return Err(format!("pump left work behind: {other:?}")),
    }
    let Response::Poll { completions } = call(&mut writer, &mut reader, &Request::Poll)? else {
        return Err("bad poll answer".into());
    };
    call(&mut writer, &mut reader, &Request::Finish)?;
    Ok(completions)
}

/// Sends one request and reads its answer.
fn call(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<Response, String> {
    write_frame(writer, &encode_request(req)).map_err(io_err("send"))?;
    read_answer(reader)
}

fn read_answer(reader: &mut impl Read) -> Result<Response, String> {
    let payload = read_frame(reader)
        .map_err(io_err("receive"))?
        .ok_or("server closed the connection")?;
    decode_response(&payload).map_err(|e| e.to_string())
}

/// Serves `stream` over the wire and checks every job's completion
/// against an in-process session fed the same submissions.
fn wire_stream(system: &ServingSystem, stream: &RequestStream) -> Result<RunReport, String> {
    let run = with_server(system, false, |addr, _, _| open_loop(addr, stream))?;
    if run.protocol_errors != 0 {
        return Err(format!("{} protocol errors", run.protocol_errors));
    }
    let mut wire = run.out;
    wire.sort_by_key(|c| c.job);
    let mut session = system.session("in-process");
    for job in stream.jobs() {
        session
            .submit(job.arrival, &job.stages)
            .map_err(|e| e.to_string())?;
    }
    session.pump();
    let mut local: Vec<WireCompletion> = session
        .drain_completions()
        .into_iter()
        .map(WireCompletion::from)
        .collect();
    local.sort_by_key(|c| c.job);
    if wire != local {
        let at = wire
            .iter()
            .zip(&local)
            .position(|(a, b)| a != b)
            .unwrap_or(wire.len().min(local.len()));
        return Err(format!(
            "wire and in-process completions differ at job {at} ({} vs {} completions)",
            wire.len(),
            local.len()
        ));
    }
    engine::check_totals(&run.report, stream.len())?;
    Ok(run.report)
}

/// One connection's closed-loop record.
#[derive(Debug)]
struct ConnLog {
    /// When the connection's first request was sent.
    start: Instant,
    /// `(stream index, completion)` per request, in request order.
    done: Vec<(usize, WireCompletion)>,
    rtt_us: Vec<f64>,
    finished: Vec<Instant>,
    call_ns: [Vec<f64>; 3],
}

/// The `/stats` reads taken beside one segment's closed loop.
#[derive(Debug, Default)]
struct Scrapes {
    ms: Vec<f64>,
    /// Pages that were not a live engine snapshot.
    bad: u64,
    /// Trace events drained after each read (traced runs).
    trace: Vec<TraceEvent>,
}

/// Reads `/stats` every [`SCRAPE_EVERY`] until `done` says the closed
/// loop is over.
fn scrape(
    admin: SocketAddr,
    core: &ServiceCore<'_>,
    traced: bool,
    done: impl Fn() -> bool,
) -> Result<Scrapes, String> {
    let mut out = Scrapes::default();
    let mut next = Instant::now() + SCRAPE_EVERY;
    while !done() {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let s0 = Instant::now();
        let page = admin_get(admin, "/stats")?;
        out.ms.push(s0.elapsed().as_secs_f64() * 1e3);
        if !page.starts_with("HTTP/1.0 200") || !page.contains("\"engine\":") {
            out.bad += 1;
        }
        if traced {
            out.trace.extend(core.drain_trace());
        }
        next = Instant::now() + SCRAPE_EVERY;
    }
    Ok(out)
}

fn admin_get(admin: SocketAddr, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(admin).map_err(io_err("admin connect"))?;
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").map_err(io_err("admin send"))?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(io_err("admin read"))?;
    Ok(body)
}

/// Drives one closed-loop connection for [`SEGMENT_REQS`] requests in
/// rounds of [`BATCH`], sending the stream's jobs from index `first` on.
fn closed_loop(
    conn: usize,
    addr: SocketAddr,
    stream: &RequestStream,
    first: usize,
    traced: bool,
) -> Result<ConnLog, String> {
    let socket = TcpStream::connect(addr).map_err(io_err("connect"))?;
    socket.set_nodelay(true).map_err(io_err("nodelay"))?;
    let mut writer = socket.try_clone().map_err(io_err("clone socket"))?;
    let mut reader = BufReader::new(socket);
    if !matches!(
        call(&mut writer, &mut reader, &Request::Hello)?,
        Response::Hello { .. }
    ) {
        return Err("bad hello answer".into());
    }
    let mut log = ConnLog {
        start: Instant::now(),
        done: Vec::with_capacity(SEGMENT_REQS),
        rtt_us: Vec::with_capacity(SEGMENT_REQS),
        finished: Vec::with_capacity(SEGMENT_REQS),
        call_ns: Default::default(),
    };
    let jobs = stream.jobs();
    let mut frames = Vec::new();
    let mut sent: Vec<(u32, usize)> = Vec::with_capacity(BATCH);
    for _ in 0..SEGMENT_REQS / BATCH {
        let base = first + log.done.len();
        frames.clear();
        for k in 0..BATCH {
            // Arrival zero is floored to the engine's clock: the request
            // arrives the moment it is sent.
            let submit = Request::Submit {
                arrival: SimTime::ZERO,
                stages: jobs[(base + k) % jobs.len()].stages.clone(),
            };
            write_frame(&mut frames, &encode_request(&submit)).map_err(io_err("frame"))?;
        }
        let t0 = Instant::now();
        writer.write_all(&frames).map_err(io_err("submit"))?;
        sent.clear();
        for k in 0..BATCH {
            match read_answer(&mut reader)? {
                Response::Submit { job } => sent.push((job, (base + k) % jobs.len())),
                other => return Err(format!("submit answered {other:?}")),
            }
        }
        let t1 = Instant::now();
        match call(&mut writer, &mut reader, &Request::Pump { limit: None })? {
            Response::Pump { .. } => {}
            other => return Err(format!("pump answered {other:?}")),
        }
        let t2 = Instant::now();
        let mut completions = match call(&mut writer, &mut reader, &Request::Poll)? {
            Response::Poll { completions } => completions,
            other => return Err(format!("poll answered {other:?}")),
        };
        let t3 = Instant::now();
        // The pump ran the engine dry, so the poll holds exactly this
        // connection's batch.
        completions.sort_by_key(|c| c.job);
        if completions.len() != BATCH || completions.iter().zip(&sent).any(|(c, s)| c.job != s.0) {
            return Err(format!(
                "conn {conn}: poll returned {} completions for a batch of {BATCH}",
                completions.len()
            ));
        }
        let rtt_us = t3.duration_since(t0).as_secs_f64() * 1e6;
        for (c, &(_, index)) in completions.into_iter().zip(&sent) {
            log.done.push((index, c));
            log.rtt_us.push(rtt_us);
            log.finished.push(t3);
            if traced {
                for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3)].into_iter().enumerate() {
                    log.call_ns[k].push(b.duration_since(a).as_nanos() as f64);
                }
            }
        }
    }
    match call(&mut writer, &mut reader, &Request::Finish)? {
        Response::Finish { .. } => Ok(log),
        other => Err(format!("finish answered {other:?}")),
    }
}

/// One closed-loop segment: a fresh server and session driven by both
/// connections for [`SEGMENT_REQS`] requests each, and its verification
/// inputs.
struct Closed {
    trial: Trial,
    logs: Vec<ConnLog>,
    scrapes: Scrapes,
    realized: Vec<Job>,
    frames: u64,
    trace: Vec<TraceEvent>,
    ring_dropped: u64,
    outcomes: Outcomes,
}

/// A segment's trial: requests finished per second from the first
/// request sent to the last one finished, and the round-trip
/// percentiles of every request in it.
fn segment_trial(logs: &[ConnLog]) -> Result<Trial, String> {
    let start = logs.iter().map(|l| l.start).min().ok_or("no connections")?;
    let end = logs
        .iter()
        .filter_map(|l| l.finished.last().copied())
        .max()
        .ok_or("no request finished")?;
    let mut rtt = Weighted::default();
    for &r in logs.iter().flat_map(|l| &l.rtt_us) {
        rtt.push(r, 1);
    }
    let span = end.duration_since(start).as_secs_f64().max(1e-9);
    Trial::of(rtt.len(), span, &mut rtt)
}

fn closed_segment(
    s: &online::Setup,
    streams: &[RequestStream],
    first: usize,
    traced: bool,
) -> Result<Closed, String> {
    let system = &s.system;
    let run = with_server(system, traced, |data, admin, core| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, stream)| scope.spawn(move || closed_loop(c, data, stream, first, traced)))
                .collect();
            let scrapes = scrape(admin, core, traced, || {
                handles.iter().all(|h| h.is_finished())
            });
            let logs = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect::<Result<Vec<ConnLog>, String>>()?;
            Ok((logs, scrapes?))
        })
    })?;
    let (logs, scrapes) = run.out;
    let trial = segment_trial(&logs)?;

    // Rebuild the realized schedule: job ids are the engine's submission
    // order, and each job arrived `latency` before it finished.
    let mut realized: Vec<(u32, Job)> = Vec::new();
    let mut outcomes = Outcomes {
        check_failures: scrapes.bad,
        ..Outcomes::default()
    };
    for (log, stream) in logs.iter().zip(streams) {
        for &(index, c) in &log.done {
            outcomes.attempted += 1;
            match c.status {
                CompletionStatus::Completed => {}
                CompletionStatus::Failed => outcomes.failed += 1,
                CompletionStatus::Dropped => outcomes.dropped += 1,
            }
            let arrival = c
                .finished_at
                .nanos()
                .checked_sub(c.latency.nanos())
                .ok_or("latency exceeds finish time")?;
            realized.push((
                c.job,
                Job {
                    id: JobId(c.job),
                    class: stream.jobs()[index].class,
                    arrival: SimTime::from_nanos(arrival),
                    stages: stream.jobs()[index].stages.clone(),
                },
            ));
        }
    }
    outcomes.protocol_errors += run.protocol_errors;
    realized.sort_by_key(|r| r.0);
    if realized.iter().enumerate().any(|(i, r)| r.0 as usize != i) {
        return Err("completed job ids are not the dense submission sequence".into());
    }
    engine::check_totals(&run.report, realized.len())?;
    let mut closed = Closed {
        trial,
        logs,
        scrapes,
        realized: realized.into_iter().map(|r| r.1).collect(),
        frames: run.frames,
        trace: run.trace,
        ring_dropped: run.ring_dropped,
        outcomes,
    };
    verify_closed(system, &closed)?;
    if !traced {
        // Only the traced run's layer metrics read the logs again.
        closed.logs = Vec::new();
        closed.realized = Vec::new();
    }
    Ok(closed)
}

/// The measured closed-loop phase: segments until `seconds` of host time
/// have passed, with a set-up timed between segments.
fn closed_phase(
    s: &online::Setup,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: &mut SetupTimes,
) -> Result<Vec<Closed>, String> {
    // The closed loop uses only each stream's classes and stages.
    let streams: Vec<RequestStream> = (0..CONNS)
        .map(|c| {
            let seed = stats::derive_seed(seed, TAG_CLOSED, c as u64);
            common::poisson_stream(&s.board, s.system.model(), 20_000, NOMINAL_RPS, seed)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut segments = Vec::new();
    while segments.is_empty() || Instant::now() < deadline {
        segments.push(closed_segment(s, &streams, segments.len() * 4_096, traced)?);
        setups.time(setup)?;
    }
    Ok(segments)
}

impl Closed {
    /// Every completion of the run, in job-id order.
    fn completions(&self) -> Vec<WireCompletion> {
        let mut all: Vec<WireCompletion> = self
            .logs
            .iter()
            .flat_map(|l| l.done.iter().map(|d| d.1))
            .collect();
        all.sort_by_key(|c| c.job);
        all
    }
}

/// Replays the realized closed-loop schedule through the in-process
/// batch facade: latencies must be bit-identical, job by job.
fn verify_closed(system: &ServingSystem, closed: &Closed) -> Result<(), String> {
    let replay = RequestStream::from_jobs("realized closed loop", closed.realized.clone());
    let batch = system.serve(&replay);
    let mut batch_latencies = batch.job_latencies.clone();
    batch_latencies.sort_unstable();
    let mut wire: Vec<_> = closed.completions().iter().map(|c| c.latency).collect();
    wire.sort_unstable();
    if wire != batch_latencies {
        return Err(format!(
            "closed-loop replay differs: {} wire latencies vs {} replayed",
            wire.len(),
            batch_latencies.len()
        ));
    }
    Ok(())
}

/// Times the codec on the frames the closed loop exchanged: per round,
/// each request's `Submit` and its answer, then one `Pump` and one
/// `Poll` with their answers. `(encode, decode)` ns per frame.
fn codec_ns(closed: &Closed) -> (Vec<f64>, Vec<f64>) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut sample = |encode: &dyn Fn() -> Vec<u8>, request: bool| {
        let t0 = Instant::now();
        let bytes = encode();
        let t1 = Instant::now();
        let ok = if request {
            decode_request(&bytes).is_ok()
        } else {
            decode_response(&bytes).is_ok()
        };
        let t2 = Instant::now();
        std::hint::black_box(ok);
        enc.push(t1.duration_since(t0).as_nanos() as f64);
        dec.push(t2.duration_since(t1).as_nanos() as f64);
    };
    for round in closed.logs.iter().flat_map(|l| l.done.chunks(BATCH)) {
        let completions: Vec<WireCompletion> = round.iter().map(|d| d.1).collect();
        for c in &completions {
            let submit = Request::Submit {
                arrival: SimTime::ZERO,
                stages: closed.realized[c.job as usize].stages.clone(),
            };
            sample(&|| encode_request(&submit), true);
            sample(&|| encode_response(&Response::Submit { job: c.job }), false);
        }
        sample(&|| encode_request(&Request::Pump { limit: None }), true);
        let pump = Response::Pump {
            processed: 0,
            now: completions
                .iter()
                .map(|c| c.finished_at)
                .max()
                .unwrap_or_default(),
            pending: 0,
        };
        sample(&|| encode_response(&pump), false);
        sample(&|| encode_request(&Request::Poll), true);
        let poll = Response::Poll { completions };
        sample(&|| encode_response(&poll), false);
    }
    (enc, dec)
}

/// Replays the realized schedule into a fresh `ServiceCore` without
/// sockets, three calls per request: `Submit` at the job's realized
/// arrival, `Pump` up to the next job's arrival, `Poll`. Each `handle`
/// call is timed, and a snapshot every [`SNAPSHOT_EVERY`] requests. The replay must finish every job exactly as the wire did.
fn service_replay(
    system: &ServingSystem,
    closed: &Closed,
    rec: &mut Recorder,
) -> Result<([Vec<f64>; 3], Vec<f64>), String> {
    let core = ServiceCore::new(system.session("replay"), system.model().num_experts());
    let mut conn = None;
    core.handle(&mut conn, Request::Hello);
    let mut handle_ns: [Vec<f64>; 3] = Default::default();
    let mut snapshot_ns = Vec::new();
    let mut replayed: Vec<WireCompletion> = Vec::new();
    let jobs = &closed.realized;
    for (i, job) in jobs.iter().enumerate() {
        let limit = jobs.get(i + 1).map(|next| next.arrival);
        let requests = [
            Request::Submit {
                arrival: job.arrival,
                stages: job.stages.clone(),
            },
            Request::Pump { limit },
            Request::Poll,
        ];
        let parent = rec.open("service.request", None, i as u64);
        for (k, req) in requests.into_iter().enumerate() {
            let t0 = Instant::now();
            let resp = core.handle(&mut conn, req);
            let t1 = Instant::now();
            handle_ns[k].push(t1.duration_since(t0).as_nanos() as f64);
            rec.record(
                ["service.submit", "service.pump", "service.poll"][k],
                t0,
                t1,
                parent,
                i as u64,
            );
            match resp {
                Response::Poll { completions } => replayed.extend(completions),
                Response::Submit { .. } | Response::Pump { .. } => {}
                other => return Err(format!("service replay of job {i}: {other:?}")),
            }
        }
        rec.close(parent);
        if i % SNAPSHOT_EVERY == 0 {
            let t0 = Instant::now();
            std::hint::black_box(core.snapshot());
            snapshot_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    replayed.sort_by_key(|c| c.job);
    if replayed != closed.completions() {
        return Err(format!(
            "service replay finished {} jobs differently from the {} the wire finished",
            replayed.len(),
            jobs.len()
        ));
    }
    Ok((handle_ns, snapshot_ns))
}

/// The p50 and p99 (when supported) of one client call's host times.
fn call_us(names: [&'static str; 2], ns: &[f64], out: &mut Vec<Metric>) {
    let us: Vec<f64> = ns.iter().map(|x| x / 1e3).collect();
    for (name, p) in names.into_iter().zip([50.0, 99.0]) {
        if let Some(v) = stats::percentile(&us, p) {
            out.push(Metric::new(name, "us", v, us.len()));
        }
    }
}

/// Everything up to the first request: the system is built and
/// profiled, the server is bound and its session is open. Returns the
/// set-up and the profiler's host time in ms.
fn setup() -> Result<(online::Setup, f64), String> {
    let (s, profile_ms) = online::build()?;
    let core = ServiceCore::new(s.system.session("wire"), s.system.model().num_experts());
    let server = Server::bind(&ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(io_err("bind"))?;
    drop((server, core));
    Ok((s, profile_ms))
}

pub fn run(ctx: &mut Ctx) -> Result<Results, String> {
    let mut setups = SetupTimes::default();
    let (s, profile_ms) = setups.time(setup)?;
    let system = &s.system;
    let mut out = Results::default();

    // Reproducible simulated metrics: open-loop streams over the wire.
    let mut sim = SimAgg::default();
    for i in 0..SIM_STREAMS {
        let seed = stats::derive_seed(ctx.seed, TAG_SIM, i as u64);
        let stream =
            common::poisson_stream(&s.board, system.model(), SIM_STREAM_LEN, NOMINAL_RPS, seed);
        sim.absorb_run(&wire_stream(system, &stream)?, stream.len());
        setups.time(setup)?;
    }
    if !ctx.trace {
        // The ladder runs in-process, with the wire's own seeds; the
        // first stream of the last rung it reaches is re-served over the
        // wire and must match job by job.
        let seed = stats::derive_seed(ctx.seed, TAG_LADDER, 0);
        let (best, rungs, samples) = online::OnlinePoisson::ladder(&s, seed)?;
        eprintln!("wire-loopback ladder: {}", common::describe(&rungs));
        let rate = best.ok_or("the lowest ladder rate already misses the SLO")?;
        let decider = rungs.last().map_or(rate, |r| r.rate);
        online::ladder_streams(&s, seed, decider, 1, |stream| wire_stream(system, stream))?;
        out.e2e
            .push(Metric::new("max_rate_at_slo_rps", "req/s", rate, samples));
    }

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let closed = closed_phase(&s, ctx.seed, seconds, false, &mut setups)?;
    out.outcomes = sim.outcomes;
    for c in &closed {
        out.outcomes.add(&c.outcomes);
    }
    let trials: Vec<Trial> = closed.iter().map(|c| c.trial).collect();
    out.e2e.insert(0, setups.metric());
    common::host_metrics(&trials, Summary::Median, &mut out.e2e)?;
    sim.quality(&mut out.e2e)?;

    if ctx.trace {
        let traced = closed_phase(&s, ctx.seed, seconds, true, &mut SetupTimes::default())?;
        for c in &traced {
            out.outcomes.add(&c.outcomes);
        }
        let ring_dropped: u64 = traced.iter().map(|c| c.ring_dropped).sum();
        if ring_dropped != 0 {
            return Err(format!(
                "the server's trace ring dropped {ring_dropped} events"
            ));
        }
        let requests = traced.iter().map(|c| c.realized.len()).sum::<usize>() as f64;
        let frames: u64 = traced.iter().map(|c| c.frames).sum();
        let logs = || traced.iter().flat_map(|c| &c.logs);
        let layers = &mut out.layers;
        layers.push(Metric::new("profiler.profile_ms", "ms", profile_ms, 1));
        sim.layers(layers);
        layers.push(Metric::new(
            "wire.frames_per_req",
            "count",
            frames as f64 / requests,
            requests as usize,
        ));
        let calls: [Vec<f64>; 3] =
            std::array::from_fn(|k| logs().flat_map(|l| l.call_ns[k].iter().copied()).collect());
        let names = [
            ["wire.call_us.submit.p50", "wire.call_us.submit.p99"],
            ["wire.call_us.pump.p50", "wire.call_us.pump.p99"],
            ["wire.call_us.poll.p50", "wire.call_us.poll.p99"],
        ];
        for (names, ns) in names.into_iter().zip(&calls) {
            call_us(names, ns, layers);
        }
        // Client-call spans, rebuilt from each request's finish instant,
        // round trip and call times (the client threads record no spans).
        for log in logs() {
            for (k, &(_, c)) in log.done.iter().enumerate() {
                let end = log.finished[k];
                let start = end - Duration::from_secs_f64(log.rtt_us[k] / 1e6);
                let req = u64::from(c.job);
                let parent = ctx.rec.record("wire.request", start, end, None, req);
                let mut t = start;
                for (call, name) in
                    log.call_ns
                        .iter()
                        .zip(["wire.submit", "wire.pump", "wire.poll"])
                {
                    let next = t + Duration::from_nanos(call[k] as u64);
                    ctx.rec.record(name, t, next.min(end), parent, req);
                    t = next;
                }
            }
        }
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        let mut handle_ns: [Vec<f64>; 3] = Default::default();
        let mut snapshot_ns = Vec::new();
        for c in &traced {
            let (e, d) = codec_ns(c);
            enc.extend(e);
            dec.extend(d);
            let (h, snap) = service_replay(system, c, &mut ctx.rec)?;
            for (all, seg) in handle_ns.iter_mut().zip(h) {
                all.extend(seg);
            }
            snapshot_ns.extend(snap);
        }
        layers.push(Metric::new(
            "protocol.encode_ns",
            "ns",
            stats::median(&enc),
            enc.len(),
        ));
        layers.push(Metric::new(
            "protocol.decode_ns",
            "ns",
            stats::median(&dec),
            dec.len(),
        ));
        for (k, name) in [
            "service.handle_ns.submit",
            "service.handle_ns.pump",
            "service.handle_ns.poll",
        ]
        .into_iter()
        .enumerate()
        {
            layers.push(Metric::new(
                name,
                "ns",
                stats::median(&handle_ns[k]),
                handle_ns[k].len(),
            ));
        }
        layers.push(Metric::new(
            "engine.snapshot_us",
            "us",
            stats::median(&snapshot_ns) / 1e3,
            snapshot_ns.len(),
        ));
        let scrapes: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.scrapes.ms.iter().copied())
            .collect();
        if !scrapes.is_empty() {
            layers.push(Metric::new(
                "admin.stats_scrape_ms",
                "ms",
                stats::median(&scrapes),
                scrapes.len(),
            ));
        }
        let mut events: Vec<TraceEvent> = traced
            .iter()
            .flat_map(|c| c.scrapes.trace.iter().cloned())
            .collect();
        events.extend(traced.iter().flat_map(|c| c.trace.iter().cloned()));
        if let Some(all) = LatencyAttribution::from_events(&events).overall() {
            if let (Some(q), Some(st)) = (all.queue, all.stall) {
                layers.push(Metric::new(
                    "sched.queue_wait_p50_ms",
                    "sim_ms",
                    q.p50,
                    q.count,
                ));
                layers.push(Metric::new(
                    "sched.queue_wait_p99_ms",
                    "sim_ms",
                    q.p99,
                    q.count,
                ));
                layers.push(Metric::new("exec.stall_p99_ms", "sim_ms", st.p99, st.count));
            }
        }
        layers.push(Metric::new(
            "trace.events_per_req",
            "count",
            events.len() as f64 / requests,
            requests as usize,
        ));
        layers.push(Metric::new(
            "trace.ring_dropped",
            "count",
            ring_dropped as f64,
            requests as usize,
        ));
        let best = |cs: &[Closed]| cs.iter().map(|c| c.trial.rps).fold(0.0, f64::max);
        layers.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            best(&traced) / best(&closed),
            traced.len(),
        ));
    }
    Ok(out)
}
