//! The tracked perf baseline: `BENCH_core.json`.
//!
//! [`collect`] regenerates every figure of [`figures::REGISTRY`] (like
//! the `all_figures` binary) while timing each one, then times the
//! serving engine end to end (wall-clock requests/sec of simulated
//! work), and packages the measurements as a machine-readable JSON
//! report. The `bench_report` binary writes it next to the figure CSVs
//! as `BENCH_core.json`; a copy committed at the workspace root seeds
//! the perf trajectory each PR is held against.
//!
//! Timings are wall-clock and therefore machine-dependent; the report
//! records the sweep width (`COSERVE_JOBS`) and workload scale
//! (`COSERVE_SCALE`) alongside so runs are comparable.

use std::time::Instant;

use coserve_core::presets;
use coserve_metrics::report::{json_f64, json_str};

use crate::{figures, paper_devices, paper_tasks, scale, sweep, Bench};

/// Schema version of `BENCH_core.json`; bump on breaking layout
/// changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Wall-clock timing of one regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTiming {
    /// The registry name (e.g. `fig13_14_throughput_and_switches`).
    pub name: String,
    /// Wall-clock milliseconds to compute the figure (excluding
    /// printing/CSV writes).
    pub wall_ms: f64,
    /// Data rows produced across the figure's tables.
    pub rows: usize,
}

/// Wall-clock throughput of the serving engine itself.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineTiming {
    /// Device the run simulated.
    pub device: String,
    /// Task the run served.
    pub task: String,
    /// Requests submitted.
    pub requests: usize,
    /// Stages executed (each is one scheduled batch slot).
    pub stages: usize,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Requests of simulated work processed per wall-clock second.
    pub requests_per_sec: f64,
}

/// The complete perf baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Workload scale factor the run used.
    pub scale: f64,
    /// Sweep width the run used.
    pub jobs: usize,
    /// Per-figure wall-clock timings, in emission order.
    pub figures: Vec<FigureTiming>,
    /// Wall-clock milliseconds for the full figure suite.
    pub all_figures_wall_ms: f64,
    /// End-to-end engine throughput measurement.
    pub engine: EngineTiming,
}

impl PerfReport {
    /// Renders the report as JSON (hand-rolled like the metrics crate's
    /// serializers; no dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|f| {
                format!(
                    "{{\"name\":{},\"wall_ms\":{},\"rows\":{}}}",
                    json_str(&f.name),
                    json_f64(f.wall_ms),
                    f.rows,
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":{},\"scale\":{},\"jobs\":{},\
             \"all_figures_wall_ms\":{},\"figures\":[{}],\
             \"engine\":{{\"device\":{},\"task\":{},\"requests\":{},\
             \"stages\":{},\"wall_ms\":{},\"requests_per_sec\":{}}}}}",
            SCHEMA_VERSION,
            json_f64(self.scale),
            self.jobs,
            json_f64(self.all_figures_wall_ms),
            figures.join(","),
            json_str(&self.engine.device),
            json_str(&self.engine.task),
            self.engine.requests,
            self.engine.stages,
            json_f64(self.engine.wall_ms),
            json_f64(self.engine.requests_per_sec),
        )
    }
}

/// Regenerates every figure, emitting its tables, CSVs and JSON
/// artifacts exactly like `all_figures`, while timing each; then times
/// an end-to-end engine run. Returns the assembled [`PerfReport`] and
/// whether every figure file was written.
#[must_use]
pub fn collect() -> (PerfReport, bool) {
    let mut timings = Vec::new();
    let mut written = true;
    let suite_start = Instant::now();
    for figure in figures::REGISTRY {
        let started = Instant::now();
        let output = (figure.run)();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        written &= output.emit();
        timings.push(FigureTiming {
            name: figure.name.to_string(),
            wall_ms,
            rows: output.rows(),
        });
    }
    let all_figures_wall_ms = suite_start.elapsed().as_secs_f64() * 1e3;

    // End-to-end engine throughput: the CoServe preset serving the
    // paper's first task on the NUMA device, timed wall-clock.
    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let bench = Bench::prepare(device.clone(), task.clone());
    let config = presets::coserve(&device);
    let started = Instant::now();
    let report = bench.run(&config);
    let wall = started.elapsed().as_secs_f64();
    let engine = EngineTiming {
        device: device.name().to_string(),
        task: task.name().to_string(),
        requests: report.submitted,
        stages: report.stages_executed,
        wall_ms: wall * 1e3,
        requests_per_sec: if wall > 0.0 {
            report.submitted as f64 / wall
        } else {
            0.0
        },
    };

    let report = PerfReport {
        scale: scale(),
        jobs: sweep::jobs(),
        figures: timings,
        all_figures_wall_ms,
        engine,
    };
    (report, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            scale: 1.0,
            jobs: 4,
            figures: vec![
                FigureTiming {
                    name: "fig13_14_throughput_and_switches".into(),
                    wall_ms: 123.45,
                    rows: 80,
                },
                FigureTiming {
                    name: "fig21_cluster_scaling".into(),
                    wall_ms: 67.8,
                    rows: 17,
                },
            ],
            all_figures_wall_ms: 191.25,
            engine: EngineTiming {
                device: "NUMA \"quoted\"".into(),
                task: "Task A1".into(),
                requests: 2500,
                stages: 3400,
                wall_ms: 42.0,
                requests_per_sec: 59523.8,
            },
        }
    }

    /// A minimal JSON well-formedness check: balanced braces/brackets
    /// outside strings, and no trailing garbage.
    fn assert_well_formed(json: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {json}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {json}");
        assert_eq!(depth, 0, "unbalanced braces in {json}");
    }

    #[test]
    fn schema_has_required_keys() {
        let json = sample().to_json();
        assert_well_formed(&json);
        for key in [
            "\"schema_version\":1",
            "\"scale\":",
            "\"jobs\":4",
            "\"all_figures_wall_ms\":",
            "\"figures\":[",
            "\"engine\":{",
            "\"requests_per_sec\":",
            "\"wall_ms\":",
            "\"rows\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_escapes_strings() {
        let json = sample().to_json();
        assert!(json.contains("NUMA \\\"quoted\\\""));
        assert_well_formed(&json);
    }

    #[test]
    fn non_finite_timings_become_null() {
        let mut r = sample();
        r.engine.requests_per_sec = f64::NAN;
        let json = r.to_json();
        assert!(json.contains("\"requests_per_sec\":null"));
        assert_well_formed(&json);
    }
}
