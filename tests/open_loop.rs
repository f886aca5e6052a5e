//! Open-loop online serving, end to end: deterministic bit-identical
//! reports at multiple offered-load levels, finite tail percentiles,
//! and nonzero admission/drop accounting at overload.

use coserve::prelude::*;

fn online_system() -> (ServingSystem, BoardSpec) {
    let board = BoardSpec::synthetic("online-e2e", 30, 3, 1.2, 40.0, 0.5);
    let model = board.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let config = presets::coserve_online(&device);
    (ServingSystem::new(device, model, config).unwrap(), board)
}

fn run_at(rps: f64, requests: usize, capacity: usize) -> RunReport {
    let (system, board) = online_system();
    let options = OpenLoopOptions::new(ArrivalProcess::poisson(rps))
        .requests(requests)
        .admission(AdmissionControl::with_queue_capacity(capacity));
    serve_open_loop(&system, &board, &options)
}

#[test]
fn two_load_levels_are_deterministic_with_finite_tails() {
    // Acceptance: an open-loop run at two offered-load levels produces
    // deterministic, bit-identical RunReports with finite p50/p95/p99,
    // and nonzero drop/admission counters at overload.
    let low = run_at(30.0, 200, 48);
    let high = run_at(4_000.0, 400, 8);

    for (name, report) in [("low", &low), ("high", &high)] {
        assert_eq!(
            report.completed + report.failed + report.dropped,
            report.submitted,
            "{name}: conservation"
        );
        let lat = report
            .latency_summary()
            .unwrap_or_else(|| panic!("{name}: no completed jobs"));
        assert!(lat.is_finite(), "{name}: non-finite percentiles");
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99, "{name}: ordering");
        // Per-stage ledgers carry finite percentiles too.
        for stage in report.stages() {
            assert!(report.stage_summary(stage).unwrap().is_finite());
        }
    }

    // Underload: everything admitted, nothing dropped.
    assert_eq!(low.dropped, 0);
    assert_eq!(low.admitted, low.submitted);
    assert_eq!(low.completed, low.submitted);

    // Overload: the drop and admission counters are both nonzero.
    assert!(high.dropped > 0, "overload must shed load");
    assert!(high.admitted > 0, "overload must still admit work");
    assert!(high.drop_rate() > 0.0);

    // Bit-identical determinism at both levels.
    assert_eq!(low, run_at(30.0, 200, 48));
    assert_eq!(high, run_at(4_000.0, 400, 8));
}

#[test]
fn bursty_arrivals_stress_tails_more_than_uniform() {
    let (system, board) = online_system();
    let uniform = OpenLoopOptions::new(ArrivalProcess::Uniform {
        interval: SimSpan::from_millis(20),
    })
    .requests(250);
    // Same 50 rps offered load, delivered in bursts.
    let bursty =
        OpenLoopOptions::new(ArrivalProcess::bursty(10.0, 500.0, 220.0, 20.0)).requests(250);
    let u = serve_open_loop(&system, &board, &uniform);
    let b = serve_open_loop(&system, &board, &bursty);
    let (ul, bl) = (u.latency_summary().unwrap(), b.latency_summary().unwrap());
    assert!(
        bl.p99 > ul.p99,
        "bursts must inflate the tail: bursty p99 {:.1} ms vs uniform {:.1} ms",
        bl.p99,
        ul.p99
    );
}

#[test]
fn open_loop_harness_compares_systems_on_identical_streams() {
    let (system, board) = online_system();
    let options = OpenLoopOptions::new(ArrivalProcess::poisson(120.0)).requests(300);
    // Both systems serve `open_loop_stream(model, board, options)`,
    // which takes no serving configuration: their arrivals are
    // byte-identical by construction.
    let baseline = ServingSystem::new(
        system.device().clone(),
        system.model().clone(),
        samba_coe(system.device()),
    )
    .unwrap();

    let ours = serve_open_loop(&system, &board, &options);
    let theirs = serve_open_loop(&baseline, &board, &options);
    assert_eq!(ours.submitted, theirs.submitted);
    // Both runs are themselves reproducible.
    assert_eq!(theirs, serve_open_loop(&baseline, &board, &options));
}

#[test]
fn slo_attainment_degrades_with_load() {
    let (system, board) = online_system();
    let slo = SimSpan::from_millis(1_500);
    let low = serve_open_loop(
        &system,
        &board,
        &OpenLoopOptions::new(ArrivalProcess::poisson(20.0)).requests(150),
    );
    let high = serve_open_loop(
        &system,
        &board,
        &OpenLoopOptions::new(ArrivalProcess::poisson(2_000.0)).requests(300),
    );
    let low_slo = low.slo_attainment(slo).unwrap();
    let high_slo = high.slo_attainment(slo).unwrap();
    assert!(
        low_slo >= high_slo,
        "SLO attainment should not improve at overload: {low_slo:.2} vs {high_slo:.2}"
    );
    // Attainment is goodput-style: every dropped request is a
    // violation, so it can never exceed 1 - drop_rate.
    assert!(high_slo <= 1.0 - high.drop_rate() + 1e-12);
}
