//! The admin port.
//!
//! A minimal HTTP/1.0 responder on a second listener, in the Pelikan
//! tradition of keeping operational traffic off the data port:
//!
//! | endpoint    | answer                                             |
//! |-------------|----------------------------------------------------|
//! | `/healthz`  | `200 ok` while the server is accepting             |
//! | `/stats`    | live JSON: server counters + engine `RunSnapshot`  |
//! | `/metrics`  | Pelikan-style flat `name value` counter lines      |
//! | `/trace`    | Chrome trace-event JSON; **drains** the tracer     |
//! | `/drain`    | graceful drain: serve out open connections, then stop |
//! | `/shutdown` | sets the shutdown flag and acknowledges            |
//!
//! `/stats` and `/metrics` are served mid-run without consuming or
//! pausing the engine — they take the core lock just long enough to
//! copy a non-consuming
//! [`RunSnapshot`](coserve_metrics::report::RunSnapshot). `/trace` is
//! destructive by design: each buffered trace event is exported
//! exactly once, so repeated requests stream disjoint windows of the
//! run (and the buffer never needs unbounded memory).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::server::Server;
use crate::service::ServiceCore;

/// Answers one admin connection: read a single HTTP request, write a
/// single response, close. Malformed or slow requests are dropped
/// silently — the admin port never blocks the server.
pub(crate) fn serve_admin_connection(
    server: &Server,
    core: &ServiceCore<'_>,
    mut stream: TcpStream,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let Some(path) = read_request_path(&mut stream) else {
        return;
    };
    let (status, body) = match path.as_str() {
        "/healthz" => ("200 OK", "ok\n".to_string()),
        "/stats" => ("200 OK", stats_json(server, core)),
        "/metrics" => ("200 OK", metrics_text(server, core)),
        "/trace" => ("200 OK", core.drain_trace_json()),
        "/drain" => {
            server.drain();
            ("200 OK", "draining\n".to_string())
        }
        "/shutdown" => {
            server.shutdown();
            ("200 OK", "shutting down\n".to_string())
        }
        _ => ("404 Not Found", "unknown endpoint\n".to_string()),
    };
    let content_type = if status.starts_with("200") && (path == "/stats" || path == "/trace") {
        "application/json"
    } else {
        "text/plain"
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

/// Reads request bytes until the header terminator (or 4 KiB, or
/// timeout) and extracts the request path from the request line.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    while buf.len() < 4096 && !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => match chunk.get(..n) {
                Some(read) => buf.extend_from_slice(read),
                None => break,
            },
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let request_line = text.lines().next()?;
    // "GET /stats HTTP/1.1" → "/stats"
    request_line.split_whitespace().nth(1).map(str::to_string)
}

/// The `/stats` document: server-level counters (including the
/// data sockets' read and write syscalls and the malformed-frame
/// breakdown), per-connection pending completions,
/// and a live engine snapshot, all one JSON object.
fn stats_json(server: &Server, core: &ServiceCore<'_>) -> String {
    let counters = server.counters();
    let (opened, open, delivered) = core.counters();
    let pending = core.pending_completions();
    let pending_total: u64 = pending.iter().map(|&(_, n)| n).sum();
    let conns: Vec<String> = pending
        .iter()
        .map(|&(id, n)| format!("{{\"conn\":{id},\"pending\":{n}}}"))
        .collect();
    format!(
        "{{\"server\":{{\"accepted\":{},\"frames\":{},\"reads\":{},\"writes\":{},\
         \"protocol_errors\":{},\"frame_errors\":{},\"decode_errors\":{},\
         \"conns_opened\":{opened},\"conns_open\":{open},\"completions_delivered\":{delivered},\
         \"completions_pending\":{pending_total},\"busy_shed\":{},\"in_flight\":{},\
         \"draining\":{},\"conns\":[{}]}},\
         \"engine\":{}}}",
        counters.accepted.load(Ordering::Relaxed),
        counters.frames.load(Ordering::Relaxed),
        counters.reads.load(Ordering::Relaxed),
        counters.writes.load(Ordering::Relaxed),
        counters.protocol_errors.load(Ordering::Relaxed),
        counters.frame_errors.load(Ordering::Relaxed),
        counters.decode_errors.load(Ordering::Relaxed),
        core.busy_shed(),
        core.in_flight(),
        server.is_draining(),
        conns.join(","),
        core.snapshot().to_json(),
    )
}

/// The `/metrics` document: one `name value` line per counter, in the
/// flat-text style of Pelikan's stats port. Values are integers; times
/// are microseconds.
fn metrics_text(server: &Server, core: &ServiceCore<'_>) -> String {
    let counters = server.counters();
    let (opened, open, delivered) = core.counters();
    let pending_total: u64 = core.pending_completions().iter().map(|&(_, n)| n).sum();
    let (trace_recorded, trace_dropped, trace_buffered) = core.trace_counters();
    let snap = core.snapshot();
    let mut out = String::new();
    let mut line = |name: &str, value: u64| {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    line("server_accepted", counters.accepted.load(Ordering::Relaxed));
    line("server_frames", counters.frames.load(Ordering::Relaxed));
    line("server_reads", counters.reads.load(Ordering::Relaxed));
    line("server_writes", counters.writes.load(Ordering::Relaxed));
    line(
        "server_protocol_errors",
        counters.protocol_errors.load(Ordering::Relaxed),
    );
    line(
        "server_frame_errors",
        counters.frame_errors.load(Ordering::Relaxed),
    );
    line(
        "server_decode_errors",
        counters.decode_errors.load(Ordering::Relaxed),
    );
    line("conns_opened", opened);
    line("conns_open", open);
    line("completions_delivered", delivered);
    line("completions_pending", pending_total);
    line("server_busy_shed", core.busy_shed());
    line("server_in_flight", core.in_flight());
    line("server_draining", u64::from(server.is_draining()));
    line("engine_submitted", snap.submitted as u64);
    line("engine_admitted", snap.admitted as u64);
    line("engine_dropped", snap.dropped as u64);
    line("engine_completed", snap.completed as u64);
    line("engine_failed", snap.failed as u64);
    line("engine_stages_executed", snap.stages_executed as u64);
    line("engine_pending_events", snap.pending_events as u64);
    line(
        "engine_completions_pending",
        snap.completions_pending as u64,
    );
    line("engine_expert_switches", snap.expert_switches);
    line("engine_makespan_us", snap.makespan.nanos() / 1_000);
    line(
        "engine_switch_time_us",
        snap.switch_time_total.nanos() / 1_000,
    );
    line("engine_exec_time_us", snap.exec_time_total.nanos() / 1_000);
    line("trace_events_recorded", trace_recorded);
    line("trace_events_dropped", trace_dropped);
    line("trace_events_buffered", trace_buffered);
    out
}
