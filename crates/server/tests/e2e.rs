//! End-to-end tests: real TCP loopback sockets, the full worker pool,
//! and the admin port — pinned against the batch facade.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use coserve_core::prelude::*;
use coserve_model::devices;
use coserve_server::prelude::*;
use coserve_server::server::{Client, Server, ServerConfig};
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::task::TaskSpec;

fn tiny_setup() -> (ServingSystem, coserve_workload::stream::RequestStream) {
    let device = devices::numa_rtx3080ti();
    let task = TaskSpec::a1().scaled(0.02); // 50 requests
    let model = task.build_model().unwrap();
    let config = presets::coserve(&device);
    let system = ServingSystem::new(device, model, config).unwrap();
    let stream = task.stream(system.model());
    (system, stream)
}

/// Boots a server around `core`, runs `client_side` against the bound
/// addresses, shuts down, and returns once the scope unwinds. A panic
/// in `client_side` shuts the server down too and then fails the test,
/// instead of leaving the scope waiting on a server that still runs.
fn with_server<'a>(
    core: &ServiceCore<'a>,
    workers: usize,
    client_side: impl FnOnce(std::net::SocketAddr, std::net::SocketAddr),
) {
    let server = Server::bind(&ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = server.data_addr().unwrap();
    let admin = server.admin_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(core));
        let client = std::panic::catch_unwind(AssertUnwindSafe(|| client_side(data, admin)));
        server.shutdown();
        handle.join().unwrap().unwrap();
        if let Err(panic) = client {
            std::panic::resume_unwind(panic);
        }
    });
}

fn admin_get(admin: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(admin).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// The acceptance pin: a request stream pushed through the wire — at
/// 1, 2 and 4 worker threads — completes with per-job latencies
/// bit-identical to the consumed batch facade.
#[test]
fn wire_serving_matches_batch_serve_across_worker_counts() {
    let (system, stream) = tiny_setup();
    let batch = system.serve(&stream);
    let mut expected: Vec<SimSpan> = batch.job_latencies.clone();
    expected.sort_unstable();

    for workers in [1usize, 2, 4] {
        let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
        with_server(&core, workers, |data, _admin| {
            let mut client = Client::connect(data).unwrap();
            let hello = client.call(&Request::Hello).unwrap();
            assert!(
                matches!(hello, Response::Hello { conn: 0, .. }),
                "unexpected hello: {hello:?}"
            );

            for job in stream.jobs() {
                let resp = client
                    .call(&Request::Submit {
                        arrival: job.arrival,
                        stages: job.stages.clone(),
                    })
                    .unwrap();
                assert!(matches!(resp, Response::Submit { .. }), "{resp:?}");
            }
            let pump = client.call(&Request::Pump { limit: None }).unwrap();
            let Response::Pump { pending, .. } = pump else {
                panic!("expected pump ok, got {pump:?}");
            };
            assert_eq!(pending, 0);

            let poll = client.call(&Request::Poll).unwrap();
            let Response::Poll { completions } = poll else {
                panic!("expected poll ok, got {poll:?}");
            };
            assert_eq!(completions.len(), batch.completed, "workers={workers}");
            let mut latencies: Vec<SimSpan> = completions.iter().map(|c| c.latency).collect();
            latencies.sort_unstable();
            assert_eq!(latencies, expected, "workers={workers}");

            let finish = client.call(&Request::Finish).unwrap();
            assert_eq!(finish, Response::Finish { open_conns: 0 });
        });
        let report = core.into_report();
        assert_eq!(report.completed, batch.completed, "workers={workers}");
        assert_eq!(report.job_latencies, batch.job_latencies);
    }
}

/// Two concurrent connections served by a 2-worker pool: every job
/// completes exactly once and lands on its owning connection.
#[test]
fn concurrent_connections_conserve_jobs() {
    let (system, stream) = tiny_setup();
    let total = stream.len();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    with_server(&core, 2, |data, _admin| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    let jobs: Vec<_> = stream
                        .jobs()
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .cloned()
                        .collect();
                    scope.spawn(move || {
                        let mut client = Client::connect(data).unwrap();
                        client.call(&Request::Hello).unwrap();
                        let mut mine = Vec::new();
                        for job in &jobs {
                            let resp = client
                                .call(&Request::Submit {
                                    arrival: job.arrival,
                                    stages: job.stages.clone(),
                                })
                                .unwrap();
                            let Response::Submit { job: id } = resp else {
                                panic!("expected submit ok, got {resp:?}");
                            };
                            mine.push(id);
                        }
                        // Pump + poll until all of this connection's
                        // jobs came back.
                        let mut got = Vec::new();
                        while got.len() < jobs.len() {
                            client.call(&Request::Pump { limit: None }).unwrap();
                            let resp = client.call(&Request::Poll).unwrap();
                            let Response::Poll { completions } = resp else {
                                panic!("expected poll ok, got {resp:?}");
                            };
                            got.extend(completions.iter().map(|c| c.job));
                        }
                        got.sort_unstable();
                        mine.sort_unstable();
                        assert_eq!(got, mine, "completions must route to their owner");
                        client.call(&Request::Finish).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    });
    let report = core.into_report();
    assert_eq!(report.completed, total);
    assert_eq!(report.submitted, total);
}

/// The admin port answers mid-run with live JSON, and `/shutdown`
/// unwinds the server cleanly.
#[test]
fn admin_port_serves_live_stats_and_shutdown() {
    let (system, stream) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());

    let server = Server::bind(&ServerConfig::default()).unwrap();
    let data = server.data_addr().unwrap();
    let admin = server.admin_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&core));

        let health = admin_get(admin, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");

        // Submit half the stream and pump, then read stats mid-run —
        // the engine is live, not consumed.
        let mut client = Client::connect(data).unwrap();
        client.call(&Request::Hello).unwrap();
        for job in stream.jobs().iter().take(stream.len() / 2) {
            client
                .call(&Request::Submit {
                    arrival: job.arrival,
                    stages: job.stages.clone(),
                })
                .unwrap();
        }
        client.call(&Request::Pump { limit: None }).unwrap();

        let stats = admin_get(admin, "/stats");
        assert!(stats.starts_with("HTTP/1.0 200"), "{stats}");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with("{\"server\":{\"accepted\":"), "{body}");
        assert!(body.contains("\"conns_open\":1"), "{body}");
        assert!(body.contains("\"engine\":{"), "{body}");
        let submitted = format!("\"submitted\":{}", stream.len() / 2);
        assert!(body.contains(&submitted), "{body}");

        // The wire stats answer matches the admin document's engine half.
        let wire = client.call(&Request::Stats).unwrap();
        let Response::Stats { json } = wire else {
            panic!("expected stats, got {wire:?}");
        };
        assert!(body.contains(&json), "wire and admin snapshots agree");

        assert!(admin_get(admin, "/nope").starts_with("HTTP/1.0 404"));

        let bye = admin_get(admin, "/shutdown");
        assert!(bye.starts_with("HTTP/1.0 200"), "{bye}");
        handle.join().unwrap().unwrap();
    });

    // The session survives shutdown: the remaining jobs were simply
    // never submitted, and what ran is in the final report.
    let report = core.into_report();
    assert_eq!(report.submitted, stream.len() / 2);
    assert_eq!(report.completed, stream.len() / 2);
}

/// A graceful drain (`/drain`) serves out the open connection — Pump,
/// Poll and Finish keep flushing pending completions — while new
/// submits get a typed Shutdown error, and the server stops on its own
/// once the last connection finishes (no `/shutdown` needed).
#[test]
fn graceful_drain_flushes_in_flight_connections() {
    let (system, stream) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let data = server.data_addr().unwrap();
    let admin = server.admin_addr().unwrap();
    let submitted = stream.len() / 2;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&core));

        let mut client = Client::connect(data).unwrap();
        client.call(&Request::Hello).unwrap();
        for job in stream.jobs().iter().take(submitted) {
            let resp = client
                .call(&Request::Submit {
                    arrival: job.arrival,
                    stages: job.stages.clone(),
                })
                .unwrap();
            assert!(matches!(resp, Response::Submit { .. }), "{resp:?}");
        }
        // Pump so the completions are buffered but not yet polled,
        // then ask for a graceful drain.
        client.call(&Request::Pump { limit: None }).unwrap();
        let ack = admin_get(admin, "/drain");
        assert!(ack.starts_with("HTTP/1.0 200"), "{ack}");

        let stats = admin_get(admin, "/stats");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("\"draining\":true"), "{body}");

        // New work is refused with the typed shutdown error...
        let refused = client
            .call(&Request::Submit {
                arrival: SimTime::ZERO,
                stages: stream.jobs()[0].stages.clone(),
            })
            .unwrap();
        assert!(
            matches!(
                refused,
                Response::Error {
                    code: ErrorCode::Shutdown,
                    ..
                }
            ),
            "{refused:?}"
        );

        // ...but the in-flight completions still flush.
        let resp = client.call(&Request::Poll).unwrap();
        let Response::Poll { completions } = resp else {
            panic!("expected poll ok, got {resp:?}");
        };
        assert_eq!(completions.len(), submitted);
        client.call(&Request::Finish).unwrap();

        // The drain completes by itself once the connection is gone.
        handle.join().unwrap().unwrap();
    });
    let report = core.into_report();
    assert_eq!(report.submitted, submitted);
    assert_eq!(report.completed, submitted);
}

/// A server armed with a busy limit sheds excess submits with a typed
/// `Busy`/retry-after answer; a client that backs off (pump, retry)
/// still lands every job, and the shed count is on the admin port.
#[test]
fn busy_server_sheds_with_retry_after_and_recovers() {
    let (system, stream) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    core.set_busy_limit(4, SimSpan::from_millis(2));

    let mut shed_total = 0u64;
    with_server(&core, 2, |data, admin| {
        let mut client = Client::connect(data).unwrap();
        client.call(&Request::Hello).unwrap();
        let mut admitted = 0usize;
        for job in stream.jobs() {
            let resp = client
                .call(&Request::Submit {
                    arrival: job.arrival,
                    stages: job.stages.clone(),
                })
                .unwrap();
            match resp {
                Response::Submit { .. } => admitted += 1,
                Response::Busy { retry_after } => {
                    assert_eq!(retry_after, SimSpan::from_millis(2));
                    shed_total += 1;
                    // Busy means nothing was enqueued: back off by
                    // draining the backlog, then resubmit.
                    client.call(&Request::Pump { limit: None }).unwrap();
                    let retry = client
                        .call(&Request::Submit {
                            arrival: job.arrival,
                            stages: job.stages.clone(),
                        })
                        .unwrap();
                    assert!(matches!(retry, Response::Submit { .. }), "{retry:?}");
                    admitted += 1;
                }
                other => panic!("expected submit or busy, got {other:?}"),
            }
        }
        assert!(shed_total > 0, "the busy limit never tripped");
        assert_eq!(admitted, stream.len());

        let stats = admin_get(admin, "/stats");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        let needle = format!("\"busy_shed\":{shed_total}");
        assert!(body.contains(&needle), "{body}");

        client.call(&Request::Pump { limit: None }).unwrap();
        client.call(&Request::Poll).unwrap();
        client.call(&Request::Finish).unwrap();
    });

    let ledger = core.fault_ledger();
    assert_eq!(ledger.busy_shed, shed_total);
    let report = core.into_report();
    assert_eq!(report.submitted, stream.len());
    assert_eq!(report.completed, stream.len());
}

/// Malformed bytes on the data port get an error frame or a dropped
/// connection — never a panic, never a wedged server.
#[test]
fn malformed_frames_do_not_wedge_the_server() {
    let (system, _) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    with_server(&core, 2, |data, admin| {
        // A valid frame with a garbage opcode: server answers Error.
        let mut stream = TcpStream::connect(data).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&2u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x42, 0x42]).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let resp = decode_response(&payload).unwrap();
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{resp:?}"
        );
        drop(stream);

        // An oversized length prefix: the connection is dropped.
        let mut stream = TcpStream::connect(data).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");

        // A `Hello` and an oversized length prefix in one write: the
        // answer to the frame ahead of the bad prefix still goes out,
        // then the connection is dropped.
        let mut stream = TcpStream::connect(data).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Hello)).unwrap();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&wire).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let resp = decode_response(&payload).unwrap();
        assert!(matches!(resp, Response::Hello { .. }), "{resp:?}");
        assert!(
            read_frame(&mut stream).unwrap_or(None).is_none(),
            "connection closed"
        );

        // The server still serves well-formed clients afterwards.
        let mut client = Client::connect(data).unwrap();
        let hello = client.call(&Request::Hello).unwrap();
        assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
        client.call(&Request::Finish).unwrap();

        // The two failure modes are counted separately and surfaced
        // on the admin port: one decode error (garbage opcode), two
        // frame errors (oversized length prefixes).
        let stats = admin_get(admin, "/stats");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("\"protocol_errors\":3"), "{body}");
        assert!(body.contains("\"frame_errors\":2"), "{body}");
        assert!(body.contains("\"decode_errors\":1"), "{body}");
    });
}

/// Reads one integer field of a `/stats` body.
fn stat(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap() + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// Every read is answered before the server reads again: one write
/// carrying `Hello`, 32 `Submit`s and the first half of a `Pump` frame
/// gets all 33 answers, in order, while the `Pump` is still incomplete.
/// A held-back answer fails the 5 s read timeout instead of hanging.
#[test]
fn answers_never_wait_for_the_next_read() {
    let (system, stream) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    with_server(&core, 2, |data, admin| {
        let mut socket = TcpStream::connect(data).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        socket.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(socket.try_clone().unwrap());
        let mut answer = || decode_response(&read_frame(&mut reader).unwrap().unwrap()).unwrap();

        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Hello)).unwrap();
        for job in stream.jobs().iter().take(32) {
            let submit = Request::Submit {
                arrival: job.arrival,
                stages: job.stages.clone(),
            };
            write_frame(&mut wire, &encode_request(&submit)).unwrap();
        }
        let mut pump = Vec::new();
        write_frame(&mut pump, &encode_request(&Request::Pump { limit: None })).unwrap();
        let (head, tail) = pump.split_at(pump.len() / 2);
        wire.extend_from_slice(head);
        socket.write_all(&wire).unwrap();

        let hello = answer();
        assert!(
            matches!(hello, Response::Hello { conn: 0, .. }),
            "{hello:?}"
        );
        for job in 0..32 {
            assert_eq!(answer(), Response::Submit { job });
        }
        socket.write_all(tail).unwrap();
        let pumped = answer();
        assert!(
            matches!(pumped, Response::Pump { pending: 0, .. }),
            "{pumped:?}"
        );

        let stats = admin_get(admin, "/stats");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        let (reads, writes) = (stat(body, "reads"), stat(body, "writes"));
        assert!(writes > 0 && writes <= reads, "{body}");
    });
}

/// `/metrics` serves flat counters, `/trace` drains the session's
/// tracer as Chrome trace-event JSON, and `/stats` reports the
/// per-connection completion backlog.
#[test]
fn admin_trace_and_metrics_endpoints() {
    let (system, stream) = tiny_setup();
    let mut session = system.session("CoServe");
    let _ = session.set_tracer(Box::new(coserve_trace::RingTracer::new()));
    let core = ServiceCore::new(session, system.model().num_experts());

    with_server(&core, 2, |data, admin| {
        let mut client = Client::connect(data).unwrap();
        client.call(&Request::Hello).unwrap();
        for job in stream.jobs() {
            client
                .call(&Request::Submit {
                    arrival: job.arrival,
                    stages: job.stages.clone(),
                })
                .unwrap();
        }
        client.call(&Request::Pump { limit: None }).unwrap();

        // /stats surfaces the undelivered-completion backlog while the
        // connection has pumped but not yet polled.
        let stats = admin_get(admin, "/stats");
        let body = stats.split("\r\n\r\n").nth(1).unwrap();
        let backlog = format!("\"completions_pending\":{}", stream.len());
        assert!(body.contains(&backlog), "{body}");
        let conn = format!("{{\"conn\":0,\"pending\":{}}}", stream.len());
        assert!(body.contains(&conn), "{body}");

        // /metrics: flat `name value` lines, Pelikan style.
        let metrics = admin_get(admin, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        let value = |name: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
                .unwrap_or_else(|| panic!("missing counter {name} in {body}"))
        };
        assert_eq!(value("engine_submitted "), stream.len() as u64);
        assert_eq!(value("engine_completed "), stream.len() as u64);
        assert_eq!(value("server_frame_errors "), 0);
        assert!(value("server_writes ") > 0);
        assert!(value("server_writes ") <= value("server_reads "));
        assert!(value("trace_events_recorded ") > 0);
        assert_eq!(
            value("trace_events_buffered "),
            value("trace_events_recorded ")
        );

        // /trace drains the buffer: the first dump carries the run...
        let trace = admin_get(admin, "/trace");
        assert!(trace.starts_with("HTTP/1.0 200"), "{trace}");
        assert!(trace.contains("application/json"), "{trace}");
        let body = trace.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with("{\"displayTimeUnit\": \"ms\""), "{body}");
        assert!(body.contains("\"stage-done\""), "{body}");
        assert!(body.contains("\"completed\""), "{body}");

        // ...and the second is a valid, empty document.
        let again = admin_get(admin, "/trace");
        let body = again.split("\r\n\r\n").nth(1).unwrap();
        assert!(!body.contains("\"stage-done\""), "{body}");
        assert!(body.trim_end().ends_with("]}"), "{body}");

        client.call(&Request::Poll).unwrap();
        client.call(&Request::Finish).unwrap();
    });
}

/// Writes one raw request frame and decodes the response frame.
fn raw_call(stream: &mut TcpStream, body: &[u8]) -> Response {
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(body).unwrap();
    let payload = read_frame(stream).unwrap().unwrap();
    decode_response(&payload).unwrap()
}

fn assert_bad_request(resp: &Response) {
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
}

/// The cases the panic-path audit turned up: bodies that decode partway
/// and then run out (or leave bytes over) must come back as BadRequest
/// error frames on a connection that keeps serving — the decoder may
/// never index past the payload.
#[test]
fn truncated_and_overlong_bodies_get_error_frames() {
    const OP_HELLO: u8 = 0x01;
    const OP_SUBMIT: u8 = 0x02;
    const OP_PUMP: u8 = 0x04;

    let (system, _) = tiny_setup();
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    with_server(&core, 2, |data, _admin| {
        let mut stream = TcpStream::connect(data).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // A Submit declaring 5 stages but carrying only 1: the stage
        // loop must hit a truncation error, not read out of bounds.
        let mut body = vec![OP_SUBMIT];
        body.extend_from_slice(&0u64.to_le_bytes()); // arrival
        body.extend_from_slice(&5u16.to_le_bytes()); // claims 5 stages
        body.extend_from_slice(&0u32.to_le_bytes()); // provides 1
        assert_bad_request(&raw_call(&mut stream, &body));

        // A Submit cut off mid-arrival (3 of 8 bytes).
        assert_bad_request(&raw_call(&mut stream, &[OP_SUBMIT, 1, 2, 3]));

        // A Pump with a limit flag that is neither 0 nor 1.
        assert_bad_request(&raw_call(&mut stream, &[OP_PUMP, 2]));

        // A Pump claiming a limit (flag 1) but carrying no timestamp.
        assert_bad_request(&raw_call(&mut stream, &[OP_PUMP, 1, 9]));

        // Trailing bytes after a complete request are rejected, not
        // silently swallowed into the next frame.
        assert_bad_request(&raw_call(&mut stream, &[OP_HELLO, 0xEE]));

        // The same connection still serves well-formed requests: the
        // error frames above were answers, not connection drops.
        let hello = raw_call(&mut stream, &[OP_HELLO]);
        assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
    });
}
