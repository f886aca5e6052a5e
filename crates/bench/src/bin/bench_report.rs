//! Regenerates every figure while timing each, times the end-to-end
//! engine, and writes the machine-readable perf baseline
//! `BENCH_core.json` next to the figure CSVs.
//!
//! `COSERVE_JOBS` controls the sweep width (artifacts are byte-identical
//! at any width); `COSERVE_SCALE` scales the workload. The committed
//! copy at the workspace root seeds the perf trajectory future PRs are
//! held against. A figure file or the baseline failing to write makes
//! the run exit with status 1.

use coserve_bench::{out_dir, perf_report};

fn main() {
    let (report, figures_written) = perf_report::collect();
    let json = report.to_json();
    let path = out_dir().join("BENCH_core.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(err) => {
            eprintln!("[json] failed to write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    println!("\n# Perf baseline (wall-clock)");
    for f in &report.figures {
        println!(
            "  {:<38} {:>10.1} ms  {:>6} rows",
            f.name, f.wall_ms, f.rows
        );
    }
    println!(
        "  {:<38} {:>10.1} ms",
        "all_figures (total)", report.all_figures_wall_ms
    );
    println!(
        "  engine: {} requests in {:.1} ms -> {:.0} requests/s of simulated work (jobs={}, scale={})",
        report.engine.requests,
        report.engine.wall_ms,
        report.engine.requests_per_sec,
        report.jobs,
        report.scale,
    );
    if !figures_written {
        eprintln!("some figure files failed to write; see above");
        std::process::exit(1);
    }
}
