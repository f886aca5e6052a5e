//! Regenerates the tables and figures of the paper: every entry of
//! `figures::REGISTRY` in order, or only the entries named on the
//! command line (`all_figures fig24_fault_matrix`). An unknown name
//! prints the valid names and exits with status 2. A file that fails to
//! write is reported on stderr; the other writes are still attempted,
//! and the run then exits with status 1.
//!
//! `--trace PATH` additionally runs the CoServe configuration on the
//! first (device, task) cell with tracing enabled and writes the
//! Chrome trace-event JSON to `PATH` (open it in Perfetto). The traced
//! run is an extra pass: every figure output stays byte-identical to
//! an untraced invocation.
use coserve_bench::figures::{self, Figure};
use coserve_bench::Bench;

/// The `--trace` path and the figures to run (the whole registry when
/// no name is given).
fn parse_args() -> (Option<std::path::PathBuf>, Vec<&'static Figure>) {
    let mut trace = None;
    let mut selected = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let Some(path) = args.next() else {
                eprintln!("missing value for --trace");
                std::process::exit(2);
            };
            trace = Some(path.into());
        } else if let Some(figure) = figures::REGISTRY.iter().find(|f| f.name == arg) {
            selected.push(figure);
        } else {
            eprintln!("unknown figure `{arg}`; valid names:");
            for figure in figures::REGISTRY {
                eprintln!("  {}", figure.name);
            }
            eprintln!("usage: all_figures [--trace PATH] [NAME...]");
            std::process::exit(2);
        }
    }
    if selected.is_empty() {
        selected = figures::REGISTRY.iter().collect();
    }
    (trace, selected)
}

/// One traced CoServe run on the first paper cell: writes the Perfetto
/// dump and prints the trace-derived attribution and heat tables.
/// Returns whether the dump was written.
fn emit_trace(path: &std::path::Path) -> bool {
    let device = coserve_bench::paper_devices().remove(0);
    let task = coserve_bench::paper_tasks().remove(0);
    let bench = Bench::prepare(device, task);
    let config = coserve_core::presets::coserve(&bench.device);
    let (report, events) = bench.run_traced(&config);
    println!(
        "traced run: {} — {} events from {} requests",
        report.summary_line(),
        events.len(),
        report.submitted,
    );
    let attribution = coserve_metrics::attribution::LatencyAttribution::from_events(&events);
    print!("{}", attribution.table().render());
    let heat = coserve_metrics::attribution::ExpertHeat::from_events(&events);
    print!("{}", heat.table().render());
    let json = coserve_trace::chrome_trace_json(&events);
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, &json)
    };
    match write() {
        Ok(()) => println!("[trace] {}", path.display()),
        Err(err) => {
            eprintln!("[trace] failed to write {}: {err}", path.display());
            return false;
        }
    }
    true
}

fn main() {
    let (trace_path, selected) = parse_args();
    let mut written = true;
    for figure in selected {
        written &= (figure.run)().emit();
    }
    if let Some(path) = trace_path {
        written &= emit_trace(&path);
    }
    if !written {
        std::process::exit(1);
    }
}
