//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-paper|online-poisson|cluster-fleet|wire-loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs, prints each metric by name
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; `--trace 1` is a separate traced pass
//! that reports the per-layer metrics and writes its spans to
//! `perfbench/out/`. Any failed correctness check exits non-zero.

#![forbid(unsafe_code)]

mod common;
mod engine;
mod fleet;
mod offline;
mod online;
mod spans;
mod stats;
mod wire;

use std::process::ExitCode;

use common::{Ctx, Results};
use stats::Metric;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "offline-paper",
    "online-poisson",
    "cluster-fleet",
    "wire-loopback",
];

/// The end-to-end metrics every untraced run reports (`BENCHMARK.json`).
const END_TO_END: [&str; 10] = [
    "setup_s",
    "host_rps",
    "host_rtt_p50_us",
    "host_rtt_p99_us",
    "sim_throughput_rps",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
    "slo_attainment",
    "max_rate_at_slo_rps",
    "peak_rss_mib",
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`).
/// Layer metrics of a single workload's path are printed but not listed.
const PER_LAYER: [&str; 14] = [
    "profiler.profile_ms",
    "sched.batch_items_mean",
    "pool.switches_per_kreq",
    "pool.hit_ratio",
    "pool.ssd_switch_share",
    "pool.switch_p99_ms",
    "pool.switch_time_share",
    "exec.busy_share",
    "dispatch.cross_hops_per_req",
    "dispatch.node_imbalance",
    "wire.frames_per_req",
    "trace.overhead_ratio",
    "trace.events_per_req",
    "trace.ring_dropped",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(ctx: &mut Ctx, workload: &str) -> Result<Results, String> {
    let mut results = match workload {
        "offline-paper" => common::run_workload::<offline::OfflinePaper>(ctx, workload),
        "online-poisson" => common::run_workload::<online::OnlinePoisson>(ctx, workload),
        "cluster-fleet" => common::run_workload::<fleet::ClusterFleet>(ctx, workload),
        _ => wire::run(ctx),
    }?;
    results.e2e.push(Metric::new(
        "peak_rss_mib",
        "MiB",
        common::peak_rss_mib()?,
        1,
    ));
    Ok(results)
}

/// Picks `names` out of `all`, failing on a missing or unusable value.
fn select<'a>(all: &'a [Metric], names: &[&str]) -> Result<Vec<&'a Metric>, String> {
    names
        .iter()
        .map(|name| {
            let m = all
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() || !stats::valid_name(m.name) || !stats::valid_unit(m.unit) {
                return Err(format!(
                    "metric {name} = {} {} is not reportable",
                    m.value, m.unit
                ));
            }
            Ok(m)
        })
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metric(m: &Metric) {
    println!(
        "{:<34} {:>16.6} {:<8} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rec: spans::Recorder::new(args.trace),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let results = match run_workload(&mut ctx, &args.workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            println!("{}", json_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let o = &results.outcomes;
    for m in results.e2e.iter().chain(&results.layers) {
        print_metric(m);
    }
    println!(
        "{:<34} {:>16.6} {:<8} n={} (failed {} dropped {} shed {} protocol {} checks {})",
        "error_rate",
        o.error_rate(),
        "ratio",
        o.attempted,
        o.failed,
        o.dropped,
        o.shed,
        o.protocol_errors,
        o.check_failures
    );
    if ctx.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.rec.write(&path) {
            Ok((n, over)) => println!(
                "spans: {n} written to {} ({over} over the cap)",
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let source = if args.trace {
        &results.layers
    } else {
        &results.e2e
    };
    let selected = match select(source, names) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", json_line(false, o.attempted.max(1), o.bad(), &[]));
            return ExitCode::FAILURE;
        }
    };
    let correct = o.bad() == 0 && o.attempted > 0;
    println!(
        "{}",
        json_line(correct, o.attempted.max(1), o.bad(), &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} requests did not complete correctly",
            o.bad(),
            o.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed in one section of `BENCHMARK.json`, in order.
    fn listed(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(listed("workloads"), WORKLOADS);
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = Metric::new("host_rps", "req/s", 1234.5678, 3);
        let line = json_line(true, 10, 0, &[&m]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"host_rps": {"value": 1234.5678, "unit": "req/s"}}}"#
        );
    }

    #[test]
    fn select_rejects_missing_and_non_finite_metrics() {
        let ok = Metric::new("a", "s", 1.0, 1);
        let nan = Metric::new("b", "s", f64::NAN, 1);
        assert!(select(std::slice::from_ref(&ok), &["a"]).is_ok());
        assert!(select(std::slice::from_ref(&ok), &["missing"]).is_err());
        assert!(select(&[ok, nan], &["b"]).is_err());
    }
}
