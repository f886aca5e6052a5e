//! One function per paper table/figure, and [`REGISTRY`], the one list
//! of them.
//!
//! Every function returns the [`Table`]s that regenerate the artifact
//! (the extension figures also return JSON artifacts). A [`REGISTRY`]
//! entry names each figure and gives its outputs their file stems;
//! `all_figures` and `bench_report` iterate the registry to print the
//! tables and write the CSV and JSON files. Paper-reported reference
//! bands are asserted in `tests/figures_smoke.rs`; `PAPER.md` at the
//! workspace root summarizes the source paper.
//!
//! The sweep figures (fig13–fig22) fan their independent points out
//! over [`crate::sweep::run_ordered`] worker threads and reassemble
//! rows in canonical order, so the emitted artifacts are byte-identical
//! to a serial run at any `COSERVE_JOBS` width (pinned by
//! `tests/parallel_figures.rs`).

use std::time::Instant;

use coserve_cluster::dispatch::{FeedbackMode, RoutePolicy};
use coserve_cluster::placement::PlacementStrategy;
use coserve_cluster::runtime::{FailureSchedule, ReplacementPolicy, RuntimeOptions, SLO};
use coserve_cluster::{ClusterOptions, ClusterSystem};
use coserve_core::autotune::{window_search, UsageCdf};
use coserve_core::config::AdmissionControl;
use coserve_core::engine::Engine;
use coserve_core::presets;
use coserve_core::profiler::Profiler;
use coserve_core::system::ServingSystem;
use coserve_faults::{FaultPlan, FaultWindow, RetryPolicy};
use coserve_metrics::cluster::ClusterReport;
use coserve_metrics::faults::FaultLedger;
use coserve_metrics::report::json_f64;
use coserve_metrics::table::{fmt_f64, Table};
use coserve_model::arch::{ArchSpec, RESNET101};
use coserve_sim::device::ProcessorKind;
use coserve_sim::network::LinkProfile;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_sim::transfer::TransferRoute;
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::stream::{RequestStream, StreamOrder};

use crate::{paper_devices, paper_tasks, scale, Bench};

/// What one figure regenerates, in emission order.
#[derive(Debug)]
pub struct FigureOutput {
    /// `(file stem, table)` pairs, written as `<stem>.csv`.
    pub tables: Vec<(String, Table)>,
    /// `(file stem, JSON)` artifacts, written as `<stem>.json`.
    pub artifacts: Vec<(String, String)>,
}

impl FigureOutput {
    /// Data rows across the tables.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.tables.iter().map(|(_, t)| t.len()).sum()
    }

    /// Prints every table and writes it as a CSV, then writes every
    /// JSON artifact, into [`crate::out_dir`]. A failed write is
    /// reported on stderr and does not stop the others; returns whether
    /// every write succeeded.
    #[must_use]
    pub fn emit(&self) -> bool {
        let dir = crate::out_dir();
        let mut written = true;
        for (stem, table) in &self.tables {
            print!("{}", table.render());
            let path = dir.join(format!("{stem}.csv"));
            written &= report_write("csv", &path, table.write_csv(&path));
        }
        for (stem, json) in &self.artifacts {
            let path = dir.join(format!("{stem}.json"));
            let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
            written &= report_write("json", &path, write);
        }
        written
    }
}

/// Reports one artifact write and returns whether it succeeded.
/// Harness output shared by every figure — stdout is the product here,
/// not debug residue.
fn report_write(kind: &str, path: &std::path::Path, written: std::io::Result<()>) -> bool {
    match written {
        Ok(()) => println!("[{kind}] {}\n", path.display()), // tidy:allow(trace-hygiene)
        Err(ref err) => eprintln!("[{kind}] failed to write {}: {err}\n", path.display()), // tidy:allow(trace-hygiene)
    }
    written.is_ok()
}

/// One entry of [`REGISTRY`].
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `all_figures NAME` selects and `BENCH_core.json` times.
    pub name: &'static str,
    /// Regenerates the figure.
    pub run: fn() -> FigureOutput,
}

/// Every table and figure of the evaluation, in emission order.
pub const REGISTRY: &[Figure] = &[
    Figure {
        name: "table1_hardware",
        run: || csv("table1_hardware", table1_hardware()),
    },
    Figure {
        name: "fig01_switch_share",
        run: || csv("fig01_switch_share", fig01_switch_share()),
    },
    Figure {
        name: "fig05_avg_latency",
        run: || csv("fig05_avg_latency", fig05_avg_latency()),
    },
    Figure {
        name: "fig06_mem_footprint",
        run: || csv("fig06_mem_footprint", fig06_mem_footprint()),
    },
    Figure {
        name: "fig11_usage_cdf",
        run: || numbered("fig11_usage_cdf", fig11_usage_cdf()),
    },
    Figure {
        name: "fig12_exec_latency",
        run: || numbered("fig12_exec_latency", fig12_exec_latency()),
    },
    Figure {
        name: "fig13_14_throughput_and_switches",
        run: || {
            let stems = ["fig13_throughput", "fig14_switches"];
            pair(stems, fig13_14_throughput_and_switches())
        },
    },
    Figure {
        name: "fig15_16_ablation",
        run: || {
            let stems = ["fig15_ablation_throughput", "fig16_ablation_switches"];
            pair(stems, fig15_16_ablation())
        },
    },
    Figure {
        name: "fig17_executors",
        run: || csv("fig17_executors", fig17_executors()),
    },
    Figure {
        name: "fig18_window_search",
        run: || csv("fig18_window_search", fig18_window_search()),
    },
    Figure {
        name: "fig19_overhead",
        run: || csv("fig19_overhead", fig19_overhead()),
    },
    Figure {
        name: "fig20_latency_vs_load",
        run: || csv("fig20_latency_vs_load", fig20_latency_vs_load()),
    },
    Figure {
        name: "fig21_cluster_scaling",
        run: || with_json("fig21_cluster_scaling", fig21_cluster_scaling()),
    },
    Figure {
        name: "fig22_failure_recovery",
        run: || with_json("fig22_failure_recovery", fig22_failure_recovery()),
    },
    Figure {
        name: "fig23_engine_scale",
        run: || with_json("fig23_engine_scale", fig23_engine_scale()),
    },
    Figure {
        name: "fig24_fault_matrix",
        run: || with_json("fig24_fault_matrix", fig24_fault_matrix()),
    },
];

fn csv(stem: &str, table: Table) -> FigureOutput {
    with_json(stem, (table, Vec::new()))
}

/// One table plus the JSON artifacts its figure function returns.
fn with_json(stem: &str, (table, artifacts): (Table, Vec<(String, String)>)) -> FigureOutput {
    FigureOutput {
        tables: vec![(stem.to_string(), table)],
        artifacts,
    }
}

/// Tables stemmed `<stem>_0`, `<stem>_1`, ….
fn numbered(stem: &str, tables: Vec<Table>) -> FigureOutput {
    let tables = tables.into_iter().enumerate();
    FigureOutput {
        tables: tables.map(|(i, t)| (format!("{stem}_{i}"), t)).collect(),
        artifacts: Vec::new(),
    }
}

fn pair([a, b]: [&str; 2], (first, second): (Table, Table)) -> FigureOutput {
    FigureOutput {
        tables: vec![(a.to_string(), first), (b.to_string(), second)],
        artifacts: Vec::new(),
    }
}

/// Table 1: hardware for evaluation.
#[must_use]
pub fn table1_hardware() -> Table {
    let mut t = Table::new(
        "Table 1: Hardware for evaluation",
        &["field", "NUMA", "UMA"],
    );
    let devices = paper_devices();
    let (numa, uma) = (&devices[0], &devices[1]);
    t.row(vec![
        "GPU".into(),
        "NVIDIA RTX3080Ti".into(),
        "Apple M2".into(),
    ]);
    t.row(vec![
        "CPU".into(),
        "Intel Xeon Silver 4214R".into(),
        "Apple M2".into(),
    ]);
    t.row(vec![
        "GPU Memory".into(),
        format!("{}", numa.gpu_memory()),
        format!("{}", uma.gpu_memory()),
    ]);
    t.row(vec![
        "CPU Memory".into(),
        format!("{}", numa.cpu_memory()),
        format!("{}", uma.cpu_memory()),
    ]);
    t.row(vec![
        "SSD".into(),
        numa.ssd_name().to_string(),
        uma.ssd_name().to_string(),
    ]);
    t
}

/// Figure 1: proportion of expert-switching latency vs execution
/// latency for batch-1 GPU inference, per device, I/O path and
/// architecture.
#[must_use]
pub fn fig01_switch_share() -> Table {
    let mut t = Table::new(
        "Figure 1: Expert switching latency share of total inference latency (%)",
        &[
            "device",
            "path",
            "arch",
            "switch_ms",
            "exec_ms",
            "switch_share_pct",
        ],
    );
    for device in paper_devices() {
        for route in [TransferRoute::CpuToGpu, TransferRoute::SsdToGpu] {
            for arch in ArchSpec::paper_set() {
                let kernel = device
                    .kernel(arch.id(), ProcessorKind::Gpu)
                    .expect("paper devices have all kernels");
                let exec_ms = kernel.latency.latency_ms(1);
                let switch_ms = device
                    .transfer_duration(arch.weights(), route)
                    .as_millis_f64();
                let share = 100.0 * switch_ms / (switch_ms + exec_ms);
                t.row(vec![
                    device.name().to_string(),
                    route.to_string(),
                    arch.name().to_string(),
                    fmt_f64(switch_ms, 1),
                    fmt_f64(exec_ms, 1),
                    fmt_f64(share, 1),
                ]);
            }
        }
    }
    t
}

/// Figure 5: average (per-request) inference latency vs batch size on
/// GPU and CPU of both devices (ResNet101, profiled microbenchmark).
#[must_use]
pub fn fig05_avg_latency() -> Table {
    let mut t = Table::new(
        "Figure 5: Average inference latency vs batch size (ResNet101, ms)",
        &["device", "processor", "batch", "avg_latency_ms"],
    );
    let profiler = Profiler::with_defaults();
    for device in paper_devices() {
        for proc in ProcessorKind::ALL {
            for p in profiler.sweep(&device, RESNET101, proc) {
                t.row(vec![
                    device.name().to_string(),
                    proc.to_string(),
                    p.batch.to_string(),
                    fmt_f64(p.latency_ms / f64::from(p.batch), 2),
                ]);
            }
        }
    }
    t
}

/// Figure 6: memory footprint vs batch size (ResNet101).
#[must_use]
pub fn fig06_mem_footprint() -> Table {
    let mut t = Table::new(
        "Figure 6: Memory footprint vs batch size (ResNet101, GiB)",
        &["device", "processor", "batch", "footprint_gib"],
    );
    let profiler = Profiler::with_defaults();
    for device in paper_devices() {
        for proc in ProcessorKind::ALL {
            for p in profiler.sweep(&device, RESNET101, proc) {
                t.row(vec![
                    device.name().to_string(),
                    proc.to_string(),
                    p.batch.to_string(),
                    fmt_f64(p.footprint.as_gib_f64(), 3),
                ]);
            }
        }
    }
    t
}

/// Figure 11: the expert-usage CDF for Circuit Board A, plus the window
/// the decay search selects on the NUMA device.
#[must_use]
pub fn fig11_usage_cdf() -> Vec<Table> {
    let bench = Bench::prepare(paper_devices().remove(0), paper_tasks().remove(0));
    let cdf = UsageCdf::from_perf(&bench.perf);
    let mut t = Table::new(
        "Figure 11: CDF of expert usage (Circuit Board A)",
        &["experts", "cdf"],
    );
    let step = (cdf.len() / 40).max(1);
    for k in (step..=cdf.len()).step_by(step) {
        t.row(vec![k.to_string(), fmt_f64(cdf.coverage(k), 4)]);
    }
    let base = presets::coserve(&bench.device);
    let result = window_search(
        &bench.device,
        &bench.model,
        &bench.perf,
        &base,
        &bench.sample,
    );
    let mut sel = Table::new(
        "Figure 11 (annotation): selected expert loading number",
        &["window_lo", "window_hi", "chosen", "cdf_at_chosen"],
    );
    sel.row(vec![
        result.selected.0.to_string(),
        result.selected.1.to_string(),
        result.chosen.to_string(),
        fmt_f64(cdf.coverage(result.chosen), 3),
    ]);
    vec![t, sel]
}

/// Figure 12: execution latency vs batch size with the fitted `K`/`B`
/// coefficients the scheduler uses.
#[must_use]
pub fn fig12_exec_latency() -> Vec<Table> {
    let mut t = Table::new(
        "Figure 12: Execution latency vs batch size (ms)",
        &["device", "processor", "arch", "batch", "latency_ms"],
    );
    let mut fits = Table::new(
        "Figure 12 (annotation): fitted K and B per architecture/processor",
        &[
            "device",
            "processor",
            "arch",
            "K_ms",
            "B_ms",
            "r2",
            "max_batch",
        ],
    );
    let profiler = Profiler::with_defaults();
    for device in paper_devices() {
        for arch in [ArchSpec::resnet101(), ArchSpec::yolov5m()] {
            for proc in ProcessorKind::ALL {
                let points = profiler.sweep(&device, arch.id(), proc);
                for p in &points {
                    t.row(vec![
                        device.name().to_string(),
                        proc.to_string(),
                        arch.name().to_string(),
                        p.batch.to_string(),
                        fmt_f64(p.latency_ms, 2),
                    ]);
                }
                let max_batch = profiler.max_batch(&points);
                let (k, b, r2) = profiler.fit_kb(&points, max_batch);
                fits.row(vec![
                    device.name().to_string(),
                    proc.to_string(),
                    arch.name().to_string(),
                    fmt_f64(k, 2),
                    fmt_f64(b, 2),
                    fmt_f64(r2, 4),
                    max_batch.to_string(),
                ]);
            }
        }
    }
    vec![t, fits]
}

/// Figures 13 and 14: throughput and expert-switch counts for the five
/// evaluation systems across tasks and devices.
#[must_use]
pub fn fig13_14_throughput_and_switches() -> (Table, Table) {
    let mut thr = Table::new(
        "Figure 13: Throughput of CoServe and baselines (img/s)",
        &["device", "task", "system", "throughput", "speedup_vs_samba"],
    );
    let mut sw = Table::new(
        "Figure 14: Number of expert switches",
        &[
            "device",
            "task",
            "system",
            "switches",
            "from_ssd",
            "from_cache",
            "reduction_vs_samba_pct",
        ],
    );
    let cells: Vec<_> = paper_devices()
        .into_iter()
        .flat_map(|device| {
            paper_tasks()
                .into_iter()
                .map(move |task| (device.clone(), task))
        })
        .collect();
    let results = crate::sweep::run_ordered(cells, |(device, task)| {
        let bench = Bench::prepare(device.clone(), task.clone());
        let (reports, _) = bench.run_suite();
        (device, task, reports)
    });
    for (device, task, reports) in results {
        let samba_thr = reports[0].throughput_ips();
        let samba_sw = reports[0].expert_switches();
        for r in &reports {
            let speedup = if samba_thr > 0.0 {
                r.throughput_ips() / samba_thr
            } else {
                0.0
            };
            thr.row(vec![
                device.name().to_string(),
                task.name().to_string(),
                r.system.clone(),
                fmt_f64(r.throughput_ips(), 1),
                fmt_f64(speedup, 2),
            ]);
            let reduction = if samba_sw > 0 {
                100.0 * (1.0 - r.expert_switches() as f64 / samba_sw as f64)
            } else {
                0.0
            };
            sw.row(vec![
                device.name().to_string(),
                task.name().to_string(),
                r.system.clone(),
                r.expert_switches().to_string(),
                r.switches_from_ssd().to_string(),
                r.switches_from_cpu().to_string(),
                fmt_f64(reduction, 1),
            ]);
        }
    }
    (thr, sw)
}

/// Figures 15 and 16: the ablation ladder (None → EM → EM+RA → full
/// CoServe), throughput and switch counts.
#[must_use]
pub fn fig15_16_ablation() -> (Table, Table) {
    let mut thr = Table::new(
        "Figure 15: Throughput breakdown per optimization (img/s)",
        &["device", "task", "system", "throughput"],
    );
    let mut sw = Table::new(
        "Figure 16: Expert switches per optimization",
        &["device", "task", "system", "switches"],
    );
    let cells: Vec<_> = paper_devices()
        .into_iter()
        .flat_map(|device| {
            paper_tasks()
                .into_iter()
                .map(move |task| (device.clone(), task))
        })
        .collect();
    let results = crate::sweep::run_ordered(cells, |(device, task)| {
        let bench = Bench::prepare(device.clone(), task.clone());
        let reports: Vec<_> = presets::ablation_ladder(&device)
            .into_iter()
            .map(|config| bench.run(&config))
            .collect();
        (device, task, reports)
    });
    for (device, task, reports) in results {
        for r in reports {
            thr.row(vec![
                device.name().to_string(),
                task.name().to_string(),
                r.system.clone(),
                fmt_f64(r.throughput_ips(), 1),
            ]);
            sw.row(vec![
                device.name().to_string(),
                task.name().to_string(),
                r.system.clone(),
                r.expert_switches().to_string(),
            ]);
        }
    }
    (thr, sw)
}

/// Figure 17: throughput under different executor counts, measured on
/// the offline samples of tasks A and B.
#[must_use]
pub fn fig17_executors() -> Table {
    let mut t = Table::new(
        "Figure 17: Throughput under different numbers of executors (img/s)",
        &["device", "measurement", "config", "throughput"],
    );
    let candidates: Vec<(usize, usize)> =
        vec![(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2)];
    let cells: Vec<_> = paper_devices()
        .into_iter()
        .flat_map(|device| {
            [paper_tasks().remove(0), paper_tasks().remove(2)]
                .into_iter()
                .map(move |task| (device.clone(), task))
        })
        .collect();
    let results = crate::sweep::run_ordered(cells, |(device, task)| {
        let bench = Bench::prepare(device.clone(), task.clone());
        let trials = coserve_core::autotune::executor_search(
            &device,
            &bench.model,
            &bench.perf,
            &candidates,
            &bench.sample,
        );
        (device, task, trials)
    });
    for (device, task, trials) in results {
        let label = if task.name().contains('A') {
            "Measurement A"
        } else {
            "Measurement B"
        };
        for tr in &trials {
            t.row(vec![
                device.name().to_string(),
                label.to_string(),
                format!("{}G+{}C", tr.gpus, tr.cpus),
                fmt_f64(tr.throughput, 1),
            ]);
        }
    }
    t
}

/// Figure 18: the decay-window search trace on the NUMA GPU for both
/// measurement workloads.
#[must_use]
pub fn fig18_window_search() -> Table {
    let mut t = Table::new(
        "Figure 18: Throughput at window boundaries during the sliding-window search",
        &["measurement", "trial", "residents", "throughput", "note"],
    );
    let device = paper_devices().remove(0);
    let tasks = vec![paper_tasks().remove(0), paper_tasks().remove(2)];
    let results = crate::sweep::run_ordered(tasks, |task| {
        let bench = Bench::prepare(device.clone(), task.clone());
        let base = presets::coserve(&device);
        let result = window_search(&device, &bench.model, &bench.perf, &base, &bench.sample);
        (task, result)
    });
    for (task, result) in results {
        let label = if task.name().contains('A') {
            "Measurement A"
        } else {
            "Measurement B"
        };
        for (i, trial) in result.trials.iter().enumerate() {
            t.row(vec![
                label.to_string(),
                (i + 1).to_string(),
                trial.residents.to_string(),
                fmt_f64(trial.throughput, 1),
                String::new(),
            ]);
        }
        t.row(vec![
            label.to_string(),
            "-".into(),
            format!("{}..{}", result.selected.0, result.selected.1),
            fmt_f64(result.deviation * 100.0, 1),
            format!("selected range; chosen {} (deviation %)", result.chosen),
        ]);
    }
    t
}

/// Open-loop extension figure: tail latency and drop rate vs offered
/// load (Poisson arrivals) for CoServe and the Samba-CoE baselines, all
/// pushed through the same bounded-queue admission harness. This is the
/// latency-vs-load curve open-loop serving comparisons (SN40L, CoMoE)
/// report and the paper's closed evaluation cannot produce.
#[must_use]
pub fn fig20_latency_vs_load() -> Table {
    let mut t = Table::new(
        "Figure 20 (extension): Tail latency and drops vs offered load (Poisson, NUMA)",
        &[
            "system",
            "offered_rps",
            "p50_ms",
            "p90_ms",
            "p95_ms",
            "p99_ms",
            "drop_pct",
            "goodput_ips",
        ],
    );
    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let model = task.build_model().expect("built-in boards validate");
    let perf = Profiler::with_defaults().profile(
        &device,
        &model,
        coserve_core::profiler::UsageSource::Declared,
    );
    // Floor high enough that the arrival volume can overflow the
    // bounded queues even at smoke-test scales — the overload leg of
    // the curve must show nonzero drops.
    let requests = ((800.0 * scale()).round() as usize).max(300);
    let systems = [
        presets::coserve(&device),
        coserve_baselines::samba::samba_coe(&device),
        coserve_baselines::samba::samba_coe_parallel(&device),
    ];
    // Every (load level, system) point is an independent run: the
    // arrival schedule depends only on the load level and the seed, so
    // regenerating it per point changes nothing.
    let points: Vec<(f64, usize)> = [100.0, 250.0, 500.0, 1_000.0]
        .into_iter()
        .flat_map(|rps| (0..systems.len()).map(move |s| (rps, s)))
        .collect();
    let rows = crate::sweep::run_ordered(points, |(rps, sys_idx)| {
        let stream = RequestStream::generate_open_loop(
            format!("open-loop poisson {rps}/s"),
            task.board(),
            &model,
            requests,
            ArrivalProcess::poisson(rps),
            StreamOrder::Iid,
            7,
        );
        let mut config = systems[sys_idx].clone();
        config.admission = Some(AdmissionControl::default());
        config.max_overtake = Some(presets::ONLINE_MAX_OVERTAKE);
        let report = Engine::new(&device, &model, &perf, &config)
            .expect("harness configs are valid")
            .run(&stream);
        let lat = report.latency_summary();
        let fmt_lat = |f: fn(&coserve_metrics::stats::Summary) -> f64| {
            lat.as_ref()
                .map_or_else(|| "-".into(), |s| fmt_f64(f(s), 1))
        };
        vec![
            config.name,
            fmt_f64(rps, 0),
            fmt_lat(|s| s.p50),
            fmt_lat(|s| s.p90),
            fmt_lat(|s| s.p95),
            fmt_lat(|s| s.p99),
            fmt_f64(100.0 * report.drop_rate(), 1),
            fmt_f64(report.throughput_ips(), 1),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Cluster extension figure: throughput, drops and cross-node hops as
/// the fleet scales out, swept over placement strategy × routing
/// policy under the A1 task at overload. The single-node row is the
/// baseline every speedup compares against.
///
/// Returns the table plus machine-readable JSON artifacts (the
/// single-node `RunReport` and the 4-node usage-aware/residency-first
/// `ClusterReport`), which the registry entry writes as `.json` files.
#[must_use]
pub fn fig21_cluster_scaling() -> (Table, Vec<(String, String)>) {
    let mut t = Table::new(
        "Figure 21 (extension): Cluster scaling — throughput and cross-node hops (A1, overload)",
        &[
            "nodes",
            "placement",
            "route",
            "offered_rps",
            "throughput_ips",
            "speedup_vs_1node",
            "drop_pct",
            "cross_hops",
            "hops_per_req",
            "p95_ms",
        ],
    );
    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let model = task.build_model().expect("built-in boards validate");
    let config = presets::coserve(&device);
    // Overload: the offered rate far exceeds one node's capacity, and
    // shallow admission queues force the single node to shed load while
    // a 4-node fleet absorbs it — the scaling headroom the figure plots.
    let rps = 4_000.0;
    let requests = ((1_000.0 * scale()).round() as usize).max(250);
    let stream = RequestStream::generate_open_loop(
        format!("{} open-loop poisson {rps}/s", task.name()),
        task.board(),
        &model,
        requests,
        ArrivalProcess::poisson(rps),
        StreamOrder::Iid,
        7,
    );
    let admission = AdmissionControl::with_queue_capacity(16);

    let run = |nodes: usize, placement: PlacementStrategy, route: RoutePolicy| -> ClusterReport {
        let options = ClusterOptions::default().placement(placement).route(route);
        let cluster = ClusterSystem::homogeneous(
            nodes,
            &device,
            &config,
            &model,
            LinkProfile::ethernet_10g(),
            options,
        )
        .expect("harness clusters are valid");
        cluster.serve_with_online(&stream, admission, presets::ONLINE_MAX_OVERTAKE)
    };
    let mut row =
        |r: &ClusterReport, placement: PlacementStrategy, route: RoutePolicy, base: f64| {
            let p95 = r
                .latency_summary()
                .map_or_else(|| "-".into(), |s| fmt_f64(s.p95, 1));
            let speedup = if base > 0.0 {
                r.throughput_ips() / base
            } else {
                0.0
            };
            t.row(vec![
                r.num_nodes().to_string(),
                placement.to_string(),
                route.to_string(),
                fmt_f64(rps, 0),
                fmt_f64(r.throughput_ips(), 1),
                fmt_f64(speedup, 2),
                fmt_f64(100.0 * r.drop_rate(), 1),
                r.cross_node_hops.to_string(),
                fmt_f64(r.hops_per_request(), 3),
                p95,
            ]);
        };

    let mut artifacts = Vec::new();
    // Canonical cell order: the 1-node baseline, the 2-node placement
    // sweep under default routing, then the full 4-node placement ×
    // routing matrix. Every cell is an independent deterministic run,
    // fanned out over the sweep workers and reassembled in this order.
    let mut cells: Vec<(usize, PlacementStrategy, RoutePolicy)> = vec![(
        1,
        PlacementStrategy::UsageAware,
        RoutePolicy::ResidencyFirst,
    )];
    for placement in PlacementStrategy::ALL {
        cells.push((2, placement, RoutePolicy::ResidencyFirst));
    }
    for placement in PlacementStrategy::ALL {
        for route in RoutePolicy::ALL {
            cells.push((4, placement, route));
        }
    }
    let reports = crate::sweep::run_ordered(cells.clone(), |(nodes, placement, route)| {
        run(nodes, placement, route)
    });
    let base_thr = reports[0].throughput_ips();
    artifacts.push((
        "fig21_single_node_report".to_string(),
        reports[0].nodes[0].to_json(),
    ));
    for ((nodes, placement, route), r) in cells.into_iter().zip(&reports) {
        if nodes == 4
            && placement == PlacementStrategy::UsageAware
            && route == RoutePolicy::ResidencyFirst
        {
            artifacts.push(("fig21_cluster_report".to_string(), r.to_json()));
        }
        row(r, placement, route, base_thr);
    }
    (t, artifacts)
}

/// Failure-recovery extension figure: the dynamic cluster runtime under
/// injected node failures and usage drift. Sweeps failure timing ×
/// re-placement policy × dispatcher feedback on a 4-node fleet serving
/// a *drifted* stream (the observed class mix is the declared one
/// rotated by half the components, so the offline plan's usage basis is
/// wrong from the first request). The stream runs just below the
/// fleet's capacity: the failure-free open-loop row drops under 1 %.
///
/// The smoke tests pin one claim: re-replication bounds recovery
/// (finite `recovery_ms`, migration traffic charged to the fabric,
/// zero orphan rejections) while a static placement rejects orphaned
/// chains for the rest of the run — its orphan-drop rate never
/// recovers.
///
/// The feedback rows show that corrected estimates do not pay off in
/// this regime. At full scale, after a kill the three survivors are
/// overloaded: the static rows shed the orphaned chains at the
/// front-end, which keeps their admission drops far below those of
/// the re-replicate rows, which serve every chain and drop roughly a
/// third to a half of the stream at the nodes. There, feedback drops
/// less than open loop but has the higher p95 and estimate error; in
/// the failure-free drift-only rows open loop wins on drops, p95 and
/// estimate error alike.
///
/// Returns the table plus a machine-readable `ClusterReport` JSON
/// artifact of the recovered (re-replicating, feedback-on) mid-run-kill
/// cell.
#[must_use]
pub fn fig22_failure_recovery() -> (Table, Vec<(String, String)>) {
    let mut t = Table::new(
        "Figure 22 (extension): Failure recovery and feedback under drifted usage (A1, 4 nodes)",
        &[
            "scenario",
            "replacement",
            "feedback",
            "throughput_ips",
            "drop_pct",
            "orphan_drop_pct",
            "recovery_ms",
            "migration_mib",
            "p95_ms",
            "est_err_ms",
            "slo_attain_pct",
        ],
    );
    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let model = task.build_model().expect("built-in boards validate");
    let config = presets::coserve(&device);
    // The drift: classes are drawn from the board with its quantity
    // profile rotated by half the component types, against the model
    // (and placement plan) built from the declared profile.
    let drifted = task.board().drifted(task.board().num_components() / 2);
    let requests = ((900.0 * scale()).round() as usize).max(300);
    // Near-capacity load (not deep saturation): the largest multiple
    // of 10 rps at which the failure-free open-loop row still drops
    // under 1 % at full scale.
    let rps = 50.0;
    let stream = RequestStream::generate_open_loop(
        format!("{} drifted poisson {rps}/s", task.name()),
        &drifted,
        &model,
        requests,
        ArrivalProcess::poisson(rps),
        StreamOrder::Iid,
        7,
    );
    let horizon = stream.last_arrival().saturating_since(SimTime::ZERO);
    let tick = SimSpan::from_millis_f64((horizon.as_millis_f64() / 12.0).max(1.0));
    let at = |pct: u32| {
        SimTime::ZERO + SimSpan::from_millis_f64(horizon.as_millis_f64() * f64::from(pct) / 100.0)
    };
    let admission = AdmissionControl::with_queue_capacity(16);

    // Canonical cell order: the failure matrix (kill node 1 at 25 % or
    // 50 % of the horizon × static/re-replicate × open-loop/feedback),
    // then the failure-free drift-only feedback comparison.
    #[derive(Clone, Copy)]
    struct Cell {
        kill_pct: Option<u32>,
        replacement: ReplacementPolicy,
        feedback: FeedbackMode,
    }
    let mut cells = Vec::new();
    for kill_pct in [25u32, 50] {
        for replacement in [ReplacementPolicy::Static, ReplacementPolicy::OnFailure] {
            for feedback in [FeedbackMode::OpenLoop, FeedbackMode::Corrected] {
                cells.push(Cell {
                    kill_pct: Some(kill_pct),
                    replacement,
                    feedback,
                });
            }
        }
    }
    for feedback in [FeedbackMode::OpenLoop, FeedbackMode::Corrected] {
        cells.push(Cell {
            kill_pct: None,
            replacement: ReplacementPolicy::OnFailure,
            feedback,
        });
    }

    let reports = crate::sweep::run_ordered(cells.clone(), |cell| {
        // Least-loaded routing: the work-left estimate *is* the routing
        // signal, so estimate quality (open-loop vs corrected) shows up
        // directly in the tail.
        let cluster = ClusterSystem::homogeneous(
            4,
            &device,
            &config,
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default().route(RoutePolicy::LeastLoaded),
        )
        .expect("harness clusters are valid");
        let failures = match cell.kill_pct {
            Some(pct) => FailureSchedule::new().kill(1, at(pct)),
            None => FailureSchedule::new(),
        };
        let options = RuntimeOptions::default()
            .tick(tick)
            .failures(failures)
            .replacement(cell.replacement)
            .feedback(cell.feedback)
            .online(admission, presets::ONLINE_MAX_OVERTAKE);
        cluster.serve_runtime(&stream, &options)
    });

    let mut artifacts = Vec::new();
    for (cell, r) in cells.iter().zip(&reports) {
        let scenario = match cell.kill_pct {
            Some(pct) => format!("kill@{pct}%"),
            None => "drift-only".to_string(),
        };
        if cell.kill_pct == Some(50)
            && cell.replacement == ReplacementPolicy::OnFailure
            && cell.feedback == FeedbackMode::Corrected
        {
            artifacts.push(("fig22_failure_recovery_report".to_string(), r.to_json()));
        }
        let recovery = if r.has_unrecovered_failure() {
            "inf".to_string()
        } else {
            r.recovery_time()
                .map_or_else(|| "-".into(), |s| fmt_f64(s.as_millis_f64(), 1))
        };
        let p95 = r
            .latency_summary()
            .map_or_else(|| "-".into(), |s| fmt_f64(s.p95, 1));
        let est_err = r
            .dynamics
            .estimate_error_ms
            .map_or_else(|| "-".into(), |e| fmt_f64(e, 1));
        let attain = r
            .slo_attainment(SLO)
            .map_or_else(|| "-".into(), |a| fmt_f64(100.0 * a, 1));
        let orphan_pct = if r.submitted > 0 {
            100.0 * r.dynamics.routing_dropped as f64 / r.submitted as f64
        } else {
            0.0
        };
        t.row(vec![
            scenario,
            cell.replacement.to_string(),
            cell.feedback.to_string(),
            fmt_f64(r.throughput_ips(), 1),
            fmt_f64(100.0 * r.drop_rate(), 1),
            fmt_f64(orphan_pct, 1),
            recovery,
            fmt_f64(r.dynamics.migration_bytes.as_mib_f64(), 1),
            p95,
            est_err,
            attain,
        ]);
    }
    (t, artifacts)
}

/// Figure 23 (extension): event-calendar engine scaling. Weak-scaling
/// fleets of independent engine sessions (1, 8 and 64 nodes, a fixed
/// per-node request count) are served end to end, so the 64-node row
/// simulates the service of over ten million requests at full scale —
/// in wall-clock seconds, because the calendar core pays per *event*,
/// never per tick.
///
/// Each node streams its open-loop arrival trace through
/// [`coserve_core::engine::EngineSession::pump_until`] in chunks, the
/// live-service idiom, rather than submitting everything up front; the
/// chunked interleaving is contractually identical to a one-shot run.
///
/// The CSV holds only simulation-deterministic columns, so it is
/// byte-identical at any sweep width (pinned by
/// `tests/parallel_figures.rs`). The wall-clock measurements — the
/// point of the figure, but machine-dependent by nature, like
/// `BENCH_core.json` — go into the JSON artifact.
#[must_use]
pub fn fig23_engine_scale() -> (Table, Vec<(String, String)>) {
    let mut t = Table::new(
        "Figure 23 (extension): Event-calendar engine scaling — weak-scaling fleets (A1, NUMA)",
        &[
            "nodes",
            "requests",
            "completed",
            "stages",
            "events",
            "makespan_s",
            "sim_rps",
        ],
    );
    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let model = task.build_model().expect("built-in boards validate");
    let config = presets::coserve(&device);
    let system = ServingSystem::new(device, model, config).expect("harness systems are valid");
    // 64 nodes × 160 k requests = 10.24 M simulated requests at full
    // scale. Open-loop Poisson arrivals safely below single-node
    // capacity keep queues bounded, so wall-clock cost scales with the
    // request count, not with backlog length.
    let per_node = ((160_000.0 * scale()).round() as usize).max(500);
    let rate = 200.0;
    const CHUNK: usize = 4096;

    let mut fleet_rows = Vec::new();
    for nodes in [1usize, 8, 64] {
        let started = Instant::now();
        let node_stats = crate::sweep::run_ordered((0..nodes).collect::<Vec<_>>(), |node| {
            let stream = RequestStream::generate_open_loop(
                format!("{} node {node}", task.name()),
                task.board(),
                system.model(),
                per_node,
                ArrivalProcess::poisson(rate),
                StreamOrder::Iid,
                0x23_0000 + node as u64,
            );
            let mut session = system.session(stream.name());
            let jobs = stream.jobs();
            let mut events = 0usize;
            let mut start = 0;
            while start < jobs.len() {
                let end = (start + CHUNK).min(jobs.len());
                for job in &jobs[start..end] {
                    session
                        .submit(job.arrival, &job.stages)
                        .expect("stream jobs reference experts of the engine's model");
                }
                if end < jobs.len() {
                    events += session.pump_until(jobs[end].arrival);
                    let _ = session.drain_completions();
                }
                start = end;
            }
            events += session.pump();
            let _ = session.drain_completions();
            (session.snapshot(), events)
        });
        let wall = started.elapsed().as_secs_f64();

        let requests: usize = node_stats.iter().map(|(s, _)| s.submitted).sum();
        let completed: usize = node_stats.iter().map(|(s, _)| s.completed).sum();
        let stages: usize = node_stats.iter().map(|(s, _)| s.stages_executed).sum();
        let events: usize = node_stats.iter().map(|(_, e)| e).sum();
        // The fleet is done when its slowest node is done.
        let makespan = node_stats
            .iter()
            .map(|(s, _)| s.makespan)
            .max()
            .unwrap_or(SimSpan::ZERO);
        let sim_rps = if makespan.as_secs_f64() > 0.0 {
            completed as f64 / makespan.as_secs_f64()
        } else {
            0.0
        };
        t.row(vec![
            nodes.to_string(),
            requests.to_string(),
            completed.to_string(),
            stages.to_string(),
            events.to_string(),
            fmt_f64(makespan.as_secs_f64(), 2),
            fmt_f64(sim_rps, 1),
        ]);
        fleet_rows.push(format!(
            "{{\"nodes\":{nodes},\"requests\":{requests},\"wall_ms\":{},\"wall_rps\":{}}}",
            json_f64(wall * 1e3),
            json_f64(if wall > 0.0 {
                requests as f64 / wall
            } else {
                0.0
            }),
        ));
    }
    let artifact = format!(
        "{{\"schema_version\":1,\"scale\":{},\"per_node_requests\":{per_node},\"fleets\":[{}]}}",
        json_f64(scale()),
        fleet_rows.join(","),
    );
    (t, vec![("fig23_engine_scale_wall".to_string(), artifact)])
}

/// Figure 24 (extension): the deterministic fault matrix — fault class
/// × intensity × recovery policy, with the `FaultLedger` partitioning
/// the damage. Four classes: `load` (expert loads fail in the engine;
/// recovery = bounded retry with exponential backoff), `link` (fabric
/// dilation and partitions; recovery = hedged re-route vs local-reload
/// degradation), `node` (control-tick service dilation; absorbed),
/// `conn` (server sheds submits with a typed Busy/retry-after answer;
/// recovery = the client's retry budget). Every fault is scheduled on
/// the simulated clock from a fixed seed, so the matrix is
/// reproducible bit for bit.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn fig24_fault_matrix() -> (Table, Vec<(String, String)>) {
    let mut t = Table::new(
        "Figure 24 (extension): Fault matrix — class × intensity × recovery (A1)",
        &[
            "fault",
            "intensity",
            "recovery",
            "goodput_ips",
            "injected",
            "retries",
            "recovered",
            "lost",
            "overhead_ms",
            "recovery_ms",
            "p95_ms",
        ],
    );
    let requests = ((240.0 * scale()).round() as usize).max(80);
    let recovery_cell = |l: &FaultLedger| match l.recovery_span() {
        Some(s) => fmt_f64(s.as_millis_f64(), 1),
        None if l.injected() > 0 => "inf".to_string(),
        None => "-".to_string(),
    };
    let overhead_ms =
        |l: &FaultLedger| (l.wasted_time + l.backoff_time + l.degraded_time).as_millis_f64();
    let p95_cell = |s: Option<coserve_metrics::stats::Summary>| {
        s.map_or_else(|| "-".into(), |s| fmt_f64(s.p95, 1))
    };
    let mut artifacts = Vec::new();

    // ── load: expert-load failures in the engine pool path ──────────
    let run_load = |fail_rate: f64, retry: RetryPolicy| {
        let device = paper_devices().remove(0);
        let task = paper_tasks().remove(0);
        let model = task.build_model().expect("built-in boards validate");
        let config = presets::coserve(&device);
        let system = ServingSystem::new(device, model, config).expect("harness systems are valid");
        let stream = task.stream(system.model()).truncated(requests);
        let mut session = system.session("CoServe");
        session.set_faults(
            FaultPlan::seeded(24).with_expert_load(fail_rate, 0.0, 1.0, FaultWindow::ALWAYS),
            retry,
        );
        for job in stream.jobs() {
            let _ = session.submit(job.arrival, &job.stages);
        }
        session.pump();
        let ledger = *session.fault_ledger();
        (session.into_report(), ledger)
    };
    let retry_policy = RetryPolicy::retries(16, SimSpan::from_micros(50));
    for (intensity, fail_rate) in [("fail 10%", 0.10), ("fail 30%", 0.30)] {
        let cells = [
            ("none", RetryPolicy::none()),
            ("retry+backoff", retry_policy),
        ]
        .map(|(recovery, policy)| (recovery, run_load(fail_rate, policy)));
        // Goodput over a common horizon: a run that failed jobs also
        // finished early, so completions-per-own-makespan would
        // flatter giving up.
        let span = cells
            .iter()
            .map(|(_, (r, _))| r.makespan)
            .max()
            .unwrap_or(SimSpan::ZERO)
            .as_secs_f64();
        for (recovery, (r, ledger)) in cells {
            if fail_rate > 0.2 && recovery != "none" {
                artifacts.push((
                    "fig24_fault_matrix_load_retry_ledger".to_string(),
                    ledger.to_json(),
                ));
            }
            let goodput = if span > 0.0 {
                r.completed as f64 / span
            } else {
                0.0
            };
            t.row(vec![
                "load".into(),
                intensity.into(),
                recovery.into(),
                fmt_f64(goodput, 1),
                ledger.injected().to_string(),
                ledger.retries.to_string(),
                ledger.recovered().to_string(),
                r.failed.to_string(),
                fmt_f64(overhead_ms(&ledger), 1),
                recovery_cell(&ledger),
                p95_cell(r.latency_summary()),
            ]);
        }
    }

    // ── link + node: fabric and cluster-runtime faults ──────────────
    let cluster_stream = {
        let task = paper_tasks().remove(0);
        let model = task.build_model().expect("built-in boards validate");
        RequestStream::generate_open_loop(
            format!("{} poisson 150/s", task.name()),
            task.board(),
            &model,
            requests,
            ArrivalProcess::poisson(150.0),
            StreamOrder::Iid,
            7,
        )
    };
    let horizon = cluster_stream
        .last_arrival()
        .saturating_since(SimTime::ZERO);
    let tick = SimSpan::from_millis_f64((horizon.as_millis_f64() / 12.0).max(1.0));
    let run_cluster = |plan: FaultPlan, hedge: bool| {
        let device = paper_devices().remove(0);
        let task = paper_tasks().remove(0);
        let model = task.build_model().expect("built-in boards validate");
        let config = presets::coserve(&device);
        // Sharded placement + round-robin routing: chain stages
        // routinely pull activations across the fabric, and jobs land
        // on nodes regardless of residency — link faults sit on the
        // critical path and a cut-off target has reachable
        // alternatives for hedging.
        let cluster = ClusterSystem::homogeneous(
            4,
            &device,
            &config,
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default()
                .placement(PlacementStrategy::Sharded)
                .route(RoutePolicy::RoundRobin),
        )
        .expect("harness clusters are valid");
        let options = RuntimeOptions::default()
            .tick(tick)
            .faults(plan)
            .hedge(hedge);
        cluster.serve_runtime(&cluster_stream, &options)
    };
    let all_links_from_zero = vec![(0, 1), (0, 2), (0, 3)];
    let link_cells: [(&str, FaultPlan, bool); 3] = [
        (
            "dilate x4",
            FaultPlan::seeded(24).with_link(0.5, 4.0, Vec::new(), FaultWindow::ALWAYS),
            false,
        ),
        (
            "partition",
            FaultPlan::seeded(24).with_link(
                0.0,
                1.0,
                all_links_from_zero.clone(),
                FaultWindow::ALWAYS,
            ),
            false,
        ),
        (
            "partition",
            FaultPlan::seeded(24).with_link(0.0, 1.0, all_links_from_zero, FaultWindow::ALWAYS),
            true,
        ),
    ];
    for (intensity, plan, hedge) in link_cells {
        let r = run_cluster(plan, hedge);
        let ledger = r.dynamics.faults;
        if hedge {
            artifacts.push((
                "fig24_fault_matrix_partition_hedge_report".to_string(),
                r.to_json(),
            ));
        }
        t.row(vec![
            "link".into(),
            intensity.into(),
            if hedge { "hedge" } else { "degrade" }.into(),
            fmt_f64(r.throughput_ips(), 1),
            ledger.injected().to_string(),
            ledger.retries.to_string(),
            ledger.recovered().to_string(),
            (r.submitted - r.completed).to_string(),
            fmt_f64(overhead_ms(&ledger), 1),
            recovery_cell(&ledger),
            p95_cell(r.latency_summary()),
        ]);
    }
    for (intensity, factor) in [("slow x2", 2.0), ("slow x6", 6.0)] {
        let plan = FaultPlan::seeded(24).with_slow_nodes(vec![0], factor, FaultWindow::ALWAYS);
        let r = run_cluster(plan, true);
        let ledger = r.dynamics.faults;
        t.row(vec![
            "node".into(),
            intensity.into(),
            "absorb".into(),
            fmt_f64(r.throughput_ips(), 1),
            ledger.injected().to_string(),
            ledger.retries.to_string(),
            ledger.recovered().to_string(),
            (r.submitted - r.completed).to_string(),
            fmt_f64(overhead_ms(&ledger), 1),
            recovery_cell(&ledger),
            p95_cell(r.latency_summary()),
        ]);
    }

    // ── conn: server-side busy shedding vs client retry budget ──────
    for (intensity, limit) in [("limit 4", 4usize), ("limit 16", 16usize)] {
        let cells = [("none", 0u32), ("retry+backoff", 10)]
            .map(|(recovery, budget)| (recovery, run_conn_cell(requests, limit, budget)));
        let span = cells
            .iter()
            .map(|(_, (r, _, _))| r.makespan)
            .max()
            .unwrap_or(SimSpan::ZERO)
            .as_secs_f64();
        for (recovery, (r, ledger, gave_up)) in cells {
            if limit == 4 && recovery != "none" {
                artifacts.push((
                    "fig24_fault_matrix_conn_retry_ledger".to_string(),
                    ledger.to_json(),
                ));
            }
            let goodput = if span > 0.0 {
                r.completed as f64 / span
            } else {
                0.0
            };
            let retried = ledger.busy_shed - gave_up;
            t.row(vec![
                "conn".into(),
                intensity.into(),
                recovery.into(),
                fmt_f64(goodput, 1),
                ledger.injected().to_string(),
                retried.to_string(),
                retried.to_string(),
                gave_up.to_string(),
                fmt_f64(overhead_ms(&ledger), 1),
                recovery_cell(&ledger),
                p95_cell(r.latency_summary()),
            ]);
        }
    }
    (t, artifacts)
}

/// One `conn` cell of [`fig24_fault_matrix`]: an in-process
/// [`ServiceCore`] armed with a busy limit, driven open-loop by a
/// client that retries busy answers with an exponential backoff (or
/// gives up immediately when `budget` is zero).
fn run_conn_cell(
    requests: usize,
    limit: usize,
    budget: u32,
) -> (coserve_metrics::report::RunReport, FaultLedger, u64) {
    use coserve_server::protocol::{Request, Response};
    use coserve_server::service::ServiceCore;

    let device = paper_devices().remove(0);
    let task = paper_tasks().remove(0);
    let model = task.build_model().expect("built-in boards validate");
    let config = presets::coserve(&device);
    let system = ServingSystem::new(device, model, config).expect("harness systems are valid");
    let stream = task.stream(system.model()).truncated(requests);
    let core = ServiceCore::new(system.session("CoServe"), system.model().num_experts());
    // A retry-after hint in the same order as one request's service
    // time: ten doubling backoffs from here give the backlog seconds
    // to drain before the client gives up.
    core.set_busy_limit(limit, SimSpan::from_millis(5));

    let mut conn = None;
    core.handle(&mut conn, Request::Hello);
    let pump_now = |conn: &mut Option<u32>, until: SimTime| -> SimTime {
        match core.handle(conn, Request::Pump { limit: Some(until) }) {
            Response::Pump { now, .. } => now,
            other => panic!("pump answered {other:?}"),
        }
    };
    let mut gave_up = 0u64;
    for job in stream.jobs() {
        let mut attempt = 0u32;
        loop {
            let resp = core.handle(
                &mut conn,
                Request::Submit {
                    arrival: job.arrival,
                    stages: job.stages.clone(),
                },
            );
            match resp {
                Response::Submit { .. } => break,
                Response::Busy { retry_after } => {
                    if attempt >= budget {
                        gave_up += 1;
                        break;
                    }
                    let wait = SimSpan::from_nanos(
                        retry_after.nanos().saturating_mul(1u64 << attempt.min(20)),
                    );
                    let now = pump_now(&mut conn, SimTime::ZERO);
                    pump_now(&mut conn, now + wait);
                    attempt += 1;
                }
                other => panic!("submit answered {other:?}"),
            }
        }
    }
    core.handle(&mut conn, Request::Pump { limit: None });
    let ledger = core.fault_ledger();
    (core.into_report(), ledger, gave_up)
}

/// Figure 19: scheduling latency vs inference latency, and the
/// pre-scheduled comparison quantifying scheduling overhead.
#[must_use]
pub fn fig19_overhead() -> Table {
    let mut t = Table::new(
        "Figure 19: Request scheduling vs inference latency (per request, ms)",
        &[
            "device",
            "task",
            "scheduling_ms",
            "inference_ms",
            "presched_inference_ms",
            "throughput_gap_pct",
        ],
    );
    // The paper reports tasks A2 and B2.
    let cells: Vec<_> = paper_devices()
        .into_iter()
        .flat_map(|device| {
            [paper_tasks().remove(1), paper_tasks().remove(3)]
                .into_iter()
                .map(move |task| (device.clone(), task))
        })
        .collect();
    let results = crate::sweep::run_ordered(cells, |(device, task)| {
        let bench = Bench::prepare(device.clone(), task.clone());
        let config = presets::coserve(&device);
        let with_sched = bench.run(&config);
        let pre = bench.run(&config.pre_scheduled());
        (device, task, with_sched, pre)
    });
    for (device, task, with_sched, pre) in results {
        let sched_ms = with_sched.sched_summary().map_or(0.0, |s| s.mean);
        let gap = if pre.throughput_ips() > 0.0 {
            100.0 * (pre.throughput_ips() - with_sched.throughput_ips()).abs()
                / pre.throughput_ips()
        } else {
            0.0
        };
        t.row(vec![
            device.name().to_string(),
            task.name().to_string(),
            fmt_f64(sched_ms, 1),
            fmt_f64(with_sched.mean_exec_latency_ms(), 1),
            fmt_f64(pre.mean_exec_latency_ms(), 1),
            fmt_f64(gap, 1),
        ]);
    }
    t
}
