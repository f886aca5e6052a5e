//! Smoke tests for the figure harness: every table/figure generator
//! runs on a scaled-down workload and produces sane rows.
//!
//! Each integration-test binary is its own process, so setting
//! `COSERVE_SCALE` here cannot leak into other test binaries. Every
//! test but fig23's wants 0.05 and holds [`SCALE`] for reading; fig23
//! alone runs at 0.005 and holds it for writing, so no other test reads
//! the lowered value.

use coserve_bench::figures;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Guards `COSERVE_SCALE` against the fig23 test's lowered value.
static SCALE: RwLock<()> = RwLock::new(());

fn set_scale(scale: &str) {
    // Safe pre-2024 edition; under `SCALE`, concurrent writers all set
    // the same value.
    std::env::set_var("COSERVE_SCALE", scale);
    std::env::set_var(
        "COSERVE_OUT_DIR",
        std::env::temp_dir().join("coserve-figsmoke"),
    );
}

fn scale_down() -> RwLockReadGuard<'static, ()> {
    let guard = SCALE.read().unwrap_or_else(PoisonError::into_inner);
    set_scale("0.05");
    guard
}

#[test]
fn table1_lists_both_devices() {
    let _scale = scale_down();
    let t = figures::table1_hardware();
    assert_eq!(t.len(), 5);
    let csv = t.to_csv();
    assert!(csv.contains("RTX3080Ti"));
    assert!(csv.contains("Apple M2"));
}

#[test]
fn fig01_shares_match_paper_bands() {
    let _scale = scale_down();
    let t = figures::fig01_switch_share();
    assert_eq!(t.len(), 12); // 2 devices × 2 paths × 3 archs
    let csv = t.to_csv();
    for line in csv.lines().skip(1) {
        let share: f64 = line.split(',').next_back().unwrap().parse().unwrap();
        assert!(
            (55.0..100.0).contains(&share),
            "share {share} out of band: {line}"
        );
        if line.contains("SSD") {
            assert!(share > 85.0, "SSD share too low: {line}");
        }
    }
}

#[test]
fn fig05_06_12_sweeps_have_full_batch_range() {
    let _scale = scale_down();
    let t5 = figures::fig05_avg_latency();
    assert_eq!(t5.len(), 2 * 2 * 32);
    let t6 = figures::fig06_mem_footprint();
    assert_eq!(t6.len(), 2 * 2 * 32);
    let t12 = figures::fig12_exec_latency();
    assert_eq!(t12.len(), 2);
    assert_eq!(t12[0].len(), 2 * 2 * 2 * 32);
    assert_eq!(t12[1].len(), 8);
}

#[test]
fn fig11_cdf_is_monotone() {
    let _scale = scale_down();
    let tables = figures::fig11_usage_cdf();
    assert_eq!(tables.len(), 2);
    let csv = tables[0].to_csv();
    let mut prev = 0.0f64;
    for line in csv.lines().skip(1) {
        let v: f64 = line.split(',').next_back().unwrap().parse().unwrap();
        assert!(v + 1e-12 >= prev, "CDF not monotone at {line}");
        prev = v;
    }
    assert!(prev > 0.99, "CDF must reach 1, got {prev}");
}

#[test]
fn fig13_14_suite_produces_all_cells() {
    let _scale = scale_down();
    let (thr, sw) = figures::fig13_14_throughput_and_switches();
    // 2 devices × 4 tasks × 5 systems.
    assert_eq!(thr.len(), 40);
    assert_eq!(sw.len(), 40);
    let csv = thr.to_csv();
    assert!(csv.contains("CoServe Best"));
    assert!(csv.contains("Samba-CoE Parallel"));
}

#[test]
fn fig15_16_ablation_produces_all_cells() {
    let _scale = scale_down();
    let (thr, sw) = figures::fig15_16_ablation();
    // 2 devices × 4 tasks × 4 ladder steps.
    assert_eq!(thr.len(), 32);
    assert_eq!(sw.len(), 32);
}

#[test]
fn fig17_18_19_produce_rows() {
    let _scale = scale_down();
    let t17 = figures::fig17_executors();
    assert_eq!(t17.len(), 2 * 2 * 7);
    let t18 = figures::fig18_window_search();
    assert!(t18.len() >= 6, "window search produced too few rows");
    let t19 = figures::fig19_overhead();
    assert_eq!(t19.len(), 4);
    // Scheduling latency must stay below inference latency (Figure 19's
    // conclusion) in every row.
    for line in t19.to_csv().lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let sched: f64 = cells[2].parse().unwrap();
        let gap: f64 = cells[5].parse().unwrap();
        assert!(sched < 60.0, "scheduling latency implausible: {line}");
        assert!(
            gap < 25.0,
            "scheduling overhead too large at small scale: {line}"
        );
    }
}

#[test]
fn fig21_cluster_scaling_shows_speedup_and_locality() {
    let _scale = scale_down();
    let (t, artifacts) = figures::fig21_cluster_scaling();
    // 1 baseline + 4 placements at 2 nodes + 4×3 matrix at 4 nodes.
    assert_eq!(t.len(), 17);
    let csv = t.to_csv();
    let mut speedup_4n_ua_rf = None;
    let mut hops_rf = None;
    let mut hops_rr = None;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let speedup: f64 = cells[5].parse().unwrap();
        let hops: u64 = cells[7].parse().unwrap();
        assert!(speedup.is_finite() && speedup >= 0.0);
        if cells[0] == "4" && cells[1] == "usage-aware" {
            match cells[2] {
                "residency-first" => {
                    speedup_4n_ua_rf = Some(speedup);
                    hops_rf = Some(hops);
                }
                "round-robin" => hops_rr = Some(hops),
                _ => {}
            }
        }
        // Replicated placement can never cross nodes.
        if cells[1] == "replicated" {
            assert_eq!(hops, 0, "replicated placement crossed nodes: {line}");
        }
    }
    let speedup = speedup_4n_ua_rf.expect("4-node usage-aware residency-first row");
    assert!(
        speedup >= 2.0,
        "4 nodes must at least double 1-node throughput at overload, got {speedup:.2}x:\n{csv}"
    );
    let (rf, rr) = (hops_rf.unwrap(), hops_rr.unwrap());
    assert!(
        rf < rr,
        "residency-first must beat round-robin on hops: {rf} vs {rr}\n{csv}"
    );
    // The JSON artifacts are emitted and structurally sound.
    assert_eq!(artifacts.len(), 2);
    for (stem, json) in &artifacts {
        assert!(stem.starts_with("fig21"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
    assert!(artifacts[1].1.contains("\"num_nodes\":4"));
}

#[test]
fn fig22_failure_recovery_bounds_recovery() {
    let _scale = scale_down();
    let (t, artifacts) = figures::fig22_failure_recovery();
    // 2 kill timings × 2 replacement policies × 2 feedback modes, plus
    // the 2 failure-free drift-only rows.
    assert_eq!(t.len(), 10);
    let csv = t.to_csv();
    let mut static_orphan_drops = Vec::new();
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let (scenario, replacement) = (cells[0], cells[1]);
        let orphan_pct: f64 = cells[5].parse().unwrap();
        let recovery = cells[6];
        let migration_mib: f64 = cells[7].parse().unwrap();
        let p95: f64 = cells[8].parse().unwrap();
        assert!(p95.is_finite() && p95 > 0.0, "bad p95: {line}");
        if replacement == "static" && scenario.starts_with("kill") {
            // Claim 1a: a static placement never recovers — orphaned
            // chains are rejected until the end of the run.
            assert_eq!(recovery, "inf", "static placement recovered? {line}");
            assert!(orphan_pct > 0.0, "static kill must orphan chains: {line}");
            assert_eq!(migration_mib, 0.0, "static must not migrate: {line}");
            static_orphan_drops.push(orphan_pct);
        }
        if replacement == "re-replicate" && scenario.starts_with("kill") {
            // Claim 1b: re-replication bounds recovery — finite recovery
            // time, migration traffic visibly charged, no orphan drops.
            let recovery_ms: f64 = recovery
                .parse()
                .unwrap_or_else(|_| panic!("re-replication must report finite recovery: {line}"));
            assert!(recovery_ms > 0.0, "recovery must take real time: {line}");
            assert!(
                migration_mib > 0.0,
                "migration bytes must be charged: {line}"
            );
            assert_eq!(
                orphan_pct, 0.0,
                "re-replication must leave no orphans: {line}"
            );
        }
    }
    assert_eq!(static_orphan_drops.len(), 4);
    // The artifact is the recovered feedback-on report: migration
    // traffic on the fabric, a recovered failure, well-formed JSON.
    assert_eq!(artifacts.len(), 1);
    let (stem, json) = &artifacts[0];
    assert_eq!(stem, "fig22_failure_recovery_report");
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"unrecovered_failure\":false"));
    assert!(!json.contains("\"migration_bytes\":0,"));
    assert!(json.contains("\"ticks\":[{"));
}

#[test]
fn fig23_engine_scale_serves_every_request_at_every_fleet_size() {
    // 800 requests per node, so the 1/8/64-node fleets serve 800, 6 400
    // and 51 200 requests; at 0.05 one debug-build run costs minutes.
    let _scale = SCALE.write().unwrap_or_else(PoisonError::into_inner);
    set_scale("0.005");
    let (t, artifacts) = figures::fig23_engine_scale();
    // Weak-scaling fleets: 1, 8 and 64 nodes.
    assert_eq!(t.len(), 3);
    let csv = t.to_csv();
    let mut prev_requests = 0usize;
    let mut last_nodes = 0usize;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let nodes: usize = cells[0].parse().unwrap();
        let requests: usize = cells[1].parse().unwrap();
        let completed: usize = cells[2].parse().unwrap();
        let stages: usize = cells[3].parse().unwrap();
        let events: usize = cells[4].parse().unwrap();
        let makespan_s: f64 = cells[5].parse().unwrap();
        // Claim 1: the engine serves the whole open-loop trace — no
        // request is lost at any fleet size.
        assert_eq!(completed, requests, "every request must complete: {line}");
        assert!(
            stages >= requests,
            "each job has at least one stage: {line}"
        );
        assert!(
            events >= requests,
            "the calendar pops at least one event per job: {line}"
        );
        assert!(makespan_s > 0.0, "fleet must take simulated time: {line}");
        // Claim 2: weak scaling — per-node load is fixed, so the
        // request count grows with the fleet.
        assert!(requests >= nodes * 500, "per-node floor violated: {line}");
        assert!(requests > prev_requests, "fleet rows must grow: {line}");
        prev_requests = requests;
        last_nodes = nodes;
    }
    assert_eq!(last_nodes, 64, "the headline fleet is 64 nodes:\n{csv}");
    // The wall-clock artifact is machine-dependent but well-formed.
    assert_eq!(artifacts.len(), 1);
    let (stem, json) = &artifacts[0];
    assert_eq!(stem, "fig23_engine_scale_wall");
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"fleets\":[{"));
    assert!(json.contains("\"wall_rps\":"));
    assert!(json.contains("\"nodes\":64"));
}

#[test]
fn fig24_fault_matrix_recovers_finitely_and_beats_giving_up() {
    let _scale = scale_down();
    let (t, artifacts) = figures::fig24_fault_matrix();
    // 4 load cells + 3 link cells + 2 node cells + 4 conn cells.
    assert_eq!(t.len(), 13);
    let csv = t.to_csv();
    let mut goodput: Vec<(String, String, String, f64)> = Vec::new();
    let mut injected_total = 0u64;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let (fault, intensity, recovery) = (cells[0], cells[1], cells[2]);
        let injected: u64 = cells[4].parse().unwrap();
        let lost: u64 = cells[7].parse().unwrap();
        injected_total += injected;
        // Claim 1: wherever a recovery policy is armed and faults
        // actually fired, recovery completes in finite simulated time
        // and no work is lost.
        if recovery != "none" && injected > 0 {
            let recovery_ms: f64 = cells[9]
                .parse()
                .unwrap_or_else(|_| panic!("recovery must be finite: {line}"));
            assert!(recovery_ms > 0.0, "recovery must take real time: {line}");
            assert_eq!(lost, 0, "recovery must not lose jobs: {line}");
        }
        // Claim 2: giving up loses jobs and never recovers.
        if recovery == "none" {
            assert!(lost > 0, "no-recovery cells must lose jobs: {line}");
            assert_eq!(cells[9], "inf", "no-recovery never recovers: {line}");
        }
        goodput.push((
            fault.to_string(),
            intensity.to_string(),
            recovery.to_string(),
            cells[3].parse().unwrap(),
        ));
    }
    assert!(injected_total > 0, "the matrix must inject faults:\n{csv}");
    // Claim 3: at every (fault, intensity) that has a no-recovery row,
    // every recovery policy's goodput beats giving up.
    let mut compared = 0;
    for (fault, intensity, recovery, none_g) in &goodput {
        if recovery != "none" {
            continue;
        }
        for (f2, i2, r2, rec_g) in &goodput {
            if f2 == fault && i2 == intensity && r2 != "none" {
                assert!(
                    rec_g > none_g,
                    "{fault}/{intensity}: {r2} goodput {rec_g} <= none {none_g}:\n{csv}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 4, "expected load+conn recovery-vs-none pairs");
    // Artifacts: load retry ledger, partition hedge report, conn retry
    // ledger — all well-formed JSON.
    let stems: Vec<&str> = artifacts.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(
        stems,
        [
            "fig24_fault_matrix_load_retry_ledger",
            "fig24_fault_matrix_partition_hedge_report",
            "fig24_fault_matrix_conn_retry_ledger",
        ]
    );
    for (stem, json) in &artifacts {
        assert!(json.starts_with('{') && json.ends_with('}'), "{stem}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
    assert!(artifacts[1].1.contains("\"hedged_reroutes\":"));
    assert!(artifacts[2].1.contains("\"busy_shed\":"));
}

#[test]
fn fig20_latency_vs_load_has_finite_tails_and_overload_drops() {
    let _scale = scale_down();
    let t = figures::fig20_latency_vs_load();
    // 4 load levels × 3 systems.
    assert_eq!(t.len(), 12);
    let csv = t.to_csv();
    let mut any_drops = false;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        // p50/p90/p95/p99 are finite, parseable, and ordered.
        let p50: f64 = cells[2].parse().unwrap();
        let p95: f64 = cells[4].parse().unwrap();
        let p99: f64 = cells[5].parse().unwrap();
        assert!(p50.is_finite() && p95.is_finite() && p99.is_finite());
        assert!(p50 <= p95 && p95 <= p99, "percentiles unordered: {line}");
        let drop_pct: f64 = cells[6].parse().unwrap();
        assert!((0.0..=100.0).contains(&drop_pct));
        if drop_pct > 0.0 {
            any_drops = true;
        }
    }
    assert!(
        any_drops,
        "the overload leg of the curve must shed load:\n{csv}"
    );
    assert!(csv.contains("CoServe") && csv.contains("Samba-CoE"));
}
