//! End-to-end integration: workload generation → offline profiling →
//! serving → reporting, across crates.

use coserve::prelude::*;

/// A scaled-down Task A1 plus everything needed to serve it.
fn context(scale: f64) -> (DeviceProfile, CoeModel, PerfMatrix, RequestStream) {
    let task = TaskSpec::a1().scaled(scale);
    let model = task.build_model().expect("board A validates");
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let stream = task.stream(&model);
    (device, model, perf, stream)
}

#[test]
fn coserve_serves_task_a1_to_completion() {
    let (device, model, perf, stream) = context(0.1);
    let config = presets::coserve(&device);
    let report = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&stream);
    assert_eq!(report.submitted, 250);
    assert_eq!(report.completed, 250);
    assert_eq!(report.failed, 0);
    // Two-stage jobs executed more stages than jobs.
    assert!(report.stages_executed > 250);
    assert!(report.throughput_ips() > 1.0);
    // Accounting is self-consistent.
    let exec_switches: u64 = report.executors.iter().map(|e| e.switches).sum();
    assert_eq!(exec_switches, report.expert_switches());
    let exec_items: u64 = report.executors.iter().map(|e| e.items).sum();
    assert_eq!(exec_items as usize, report.stages_executed);
    assert_eq!(report.job_latencies.len(), report.completed);
}

#[test]
fn coserve_beats_samba_on_throughput_and_switches() {
    let (device, model, perf, stream) = context(0.5);
    let coserve = presets::coserve(&device);
    let samba = samba_coe(&device);
    let co = Engine::new(&device, &model, &perf, &coserve)
        .unwrap()
        .run(&stream);
    let sa = Engine::new(&device, &model, &perf, &samba)
        .unwrap()
        .run(&stream);
    assert!(
        co.throughput_ips() > 2.0 * sa.throughput_ips(),
        "CoServe {:.1} img/s vs Samba {:.1} img/s",
        co.throughput_ips(),
        sa.throughput_ips()
    );
    // At this scale the cold-load floor (first use of each distinct
    // expert) bounds both systems; CoServe must still cut total
    // switches substantially.
    assert!(
        co.expert_switches() * 4 < sa.expert_switches() * 3,
        "CoServe {} switches vs Samba {}",
        co.expert_switches(),
        sa.expert_switches()
    );
}

#[test]
fn uma_device_serves_without_staging_cache() {
    let task = TaskSpec::b1().scaled(0.08);
    let model = task.build_model().unwrap();
    let device = devices::uma_apple_m2();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let config = presets::coserve(&device);
    let report = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&task.stream(&model));
    assert_eq!(report.completed, 200);
    // UMA loads always come from SSD (no cache tier, §5.1).
    assert_eq!(report.switches_from_cpu(), 0);
    assert_eq!(report.switches_from_ssd(), report.expert_switches());
}

#[test]
fn serving_system_facade_matches_engine() {
    let (device, model, perf, stream) = context(0.05);
    let config = presets::coserve(&device);
    let direct = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&stream);
    let system = ServingSystem::with_matrix(device, model, perf, config).unwrap();
    let via_facade = system.serve(&stream);
    assert_eq!(direct, via_facade);
}

#[test]
fn shared_detection_experts_run_as_second_stages() {
    let (device, model, perf, stream) = context(0.1);
    let config = presets::coserve(&device);
    let report = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&stream);
    // The stream pre-rolled detection stages; the engine must execute
    // exactly those.
    let total_stages: usize = stream.jobs().iter().map(|j| j.stages.len()).sum();
    assert_eq!(report.stages_executed, total_stages);
    // Detection experts (subsequent in the graph) actually executed.
    let det_switches = report
        .switch_events
        .iter()
        .filter(|ev| !model.graph().preliminaries_of(ev.expert).is_empty())
        .count();
    let det_resident = report.executors.iter().any(|e| e.pool_peak > Bytes::ZERO);
    assert!(det_switches > 0 || det_resident);
}

#[test]
fn llm_scenario_end_to_end() {
    let model = coserve::workload::llm::build_llm_coe(6, 0.5).unwrap();
    let mut device = devices::numa_rtx3080ti();
    coserve::workload::llm::install_llm_kernels(&mut device);
    let stream = coserve::workload::llm::llm_stream(&model, 6, 120, SimSpan::from_millis(200), 11);
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Empirical(&stream));
    let config = presets::coserve_with(&device, "CoServe", 2, 1, None);
    let report = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&stream);
    assert_eq!(report.completed, 120);
    assert!(
        report.expert_switches() > 0,
        "9 large experts cannot all fit"
    );
}
