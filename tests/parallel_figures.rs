//! The parallel figure harness's determinism guarantee: fanning sweep
//! points out over `COSERVE_JOBS` worker threads must produce artifacts
//! **byte-identical** to a serial run. fig20 and fig21 are the heaviest
//! sweeps (open-loop load curve, cluster scaling matrix), so they pin
//! the guarantee for both CSV tables and JSON artifacts.
//!
//! Each integration-test binary is its own process, so setting
//! `COSERVE_SCALE`/`COSERVE_JOBS` here cannot leak into other test
//! binaries. All width and scale flips happen inside a single test
//! function, so there is no intra-process race either. fig22 (the
//! dynamic-runtime failure sweep) rides along: its cells run whole
//! cluster runtimes, so width-independence also covers the new control
//! loop. fig23 (engine scaling) runs at a tenth of the others' scale;
//! its smoke claims live in `tests/figures_smoke.rs`.

use coserve::metrics::table::Table;
use coserve_bench::{figures, sweep};

fn scale_down() {
    // Safe pre-2024 edition; this binary owns its process environment.
    std::env::set_var("COSERVE_SCALE", "0.05");
    std::env::set_var(
        "COSERVE_OUT_DIR",
        std::env::temp_dir().join("coserve-parfig"),
    );
}

/// fig23 at `COSERVE_SCALE=0.005`: 800 requests per node, so the
/// 1/8/64-node fleets serve 800, 6 400 and 51 200 requests. At the 0.05
/// the other figures use, one debug-build run costs minutes.
fn fig23_engine_scale() -> (Table, Vec<(String, String)>) {
    std::env::set_var("COSERVE_SCALE", "0.005");
    let out = figures::fig23_engine_scale();
    std::env::set_var("COSERVE_SCALE", "0.05");
    out
}

#[test]
fn parallel_sweeps_are_byte_identical_to_serial() {
    scale_down();

    std::env::set_var("COSERVE_JOBS", "1");
    assert_eq!(sweep::jobs(), 1);
    let fig20_serial = figures::fig20_latency_vs_load().to_csv();
    let (t21, artifacts) = figures::fig21_cluster_scaling();
    let fig21_serial = t21.to_csv();
    let artifacts_serial = artifacts;
    let (t22, artifacts22) = figures::fig22_failure_recovery();
    let fig22_serial = t22.to_csv();
    let artifacts22_serial = artifacts22;
    // fig23 fans each fleet's nodes over the sweep workers; its CSV is
    // simulation-only and must be width-independent. (Its JSON artifact
    // is deliberately wall-clock — machine-dependent by design — so it
    // is not compared here.)
    let (t23, _) = fig23_engine_scale();
    let fig23_serial = t23.to_csv();

    std::env::set_var("COSERVE_JOBS", "4");
    assert_eq!(sweep::jobs(), 4);
    let fig20_wide = figures::fig20_latency_vs_load().to_csv();
    let (t21w, artifacts_wide) = figures::fig21_cluster_scaling();
    let fig21_wide = t21w.to_csv();
    let (t22w, artifacts22_wide) = figures::fig22_failure_recovery();
    let fig22_wide = t22w.to_csv();
    let (t23w, _) = fig23_engine_scale();
    let fig23_wide = t23w.to_csv();

    std::env::remove_var("COSERVE_JOBS");

    assert_eq!(
        fig23_serial, fig23_wide,
        "fig23 CSV must not depend on sweep width"
    );

    assert_eq!(
        fig22_serial, fig22_wide,
        "fig22 CSV must not depend on sweep width"
    );
    assert_eq!(artifacts22_serial, artifacts22_wide);
    assert_eq!(artifacts22_serial.len(), 1);

    assert_eq!(
        fig20_serial, fig20_wide,
        "fig20 CSV must not depend on sweep width"
    );
    assert_eq!(
        fig21_serial, fig21_wide,
        "fig21 CSV must not depend on sweep width"
    );
    assert_eq!(
        artifacts_serial.len(),
        artifacts_wide.len(),
        "fig21 must emit the same JSON artifact set at any width"
    );
    for ((stem_s, json_s), (stem_w, json_w)) in artifacts_serial.iter().zip(artifacts_wide.iter()) {
        assert_eq!(stem_s, stem_w, "artifact order must be canonical");
        assert_eq!(json_s, json_w, "{stem_s} JSON must be byte-identical");
    }
    // Sanity: the sweeps produced real content.
    assert!(fig20_serial.lines().count() > 1);
    assert_eq!(artifacts_serial.len(), 2);
}
