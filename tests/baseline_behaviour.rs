//! Behavioural contracts of the Samba-CoE baselines (paper §5.1).

use coserve::prelude::*;

fn context(scale: f64, device: &DeviceProfile) -> (CoeModel, PerfMatrix, RequestStream) {
    let task = TaskSpec::a1().scaled(scale);
    let model = task.build_model().unwrap();
    let perf = Profiler::with_defaults().profile(device, &model, UsageSource::Declared);
    let stream = task.stream(&model);
    (model, perf, stream)
}

#[test]
fn parallel_beats_plain_samba() {
    for device in devices::paper_devices() {
        let (model, perf, stream) = context(0.15, &device);
        let plain = Engine::new(&device, &model, &perf, &samba_coe(&device))
            .unwrap()
            .run(&stream);
        let parallel = Engine::new(&device, &model, &perf, &samba_coe_parallel(&device))
            .unwrap()
            .run(&stream);
        assert!(
            parallel.throughput_ips() > plain.throughput_ips(),
            "{}: parallel {:.1} <= plain {:.1}",
            device.name(),
            parallel.throughput_ips(),
            plain.throughput_ips()
        );
    }
}

#[test]
fn lru_beats_fifo_replacement() {
    // Figure 13: Samba-CoE (LRU) consistently outperforms the FIFO
    // variant.
    let device = devices::numa_rtx3080ti();
    let (model, perf, stream) = context(0.2, &device);
    let lru = Engine::new(&device, &model, &perf, &samba_coe(&device))
        .unwrap()
        .run(&stream);
    let fifo = Engine::new(&device, &model, &perf, &samba_coe_fifo(&device))
        .unwrap()
        .run(&stream);
    assert!(
        lru.expert_switches() <= fifo.expert_switches(),
        "LRU {} switches vs FIFO {}",
        lru.expert_switches(),
        fifo.expert_switches()
    );
    assert!(lru.throughput_ips() >= fifo.throughput_ips() * 0.98);
}

#[test]
fn samba_uses_cpu_cache_on_numa_only() {
    let numa = devices::numa_rtx3080ti();
    let (model, perf, stream) = context(0.15, &numa);
    let r = Engine::new(&numa, &model, &perf, &samba_coe(&numa))
        .unwrap()
        .run(&stream);
    assert!(
        r.switches_from_cpu() > 0,
        "NUMA Samba should hit the CPU-memory cache tier"
    );

    let uma = devices::uma_apple_m2();
    let (model, perf, stream) = context(0.15, &uma);
    let r = Engine::new(&uma, &model, &perf, &samba_coe(&uma))
        .unwrap()
        .run(&stream);
    assert_eq!(
        r.switches_from_cpu(),
        0,
        "UMA Samba loads directly from SSD (no tiered cache)"
    );
}

#[test]
fn plain_samba_runs_one_gpu_executor() {
    let device = devices::numa_rtx3080ti();
    let (model, perf, stream) = context(0.05, &device);
    let r = Engine::new(&device, &model, &perf, &samba_coe(&device))
        .unwrap()
        .run(&stream);
    assert_eq!(r.executors.len(), 1);
    assert_eq!(r.executors[0].processor, ProcessorKind::Gpu);
    // All work went through that executor.
    assert_eq!(r.executors[0].items as usize, r.stages_executed);
}

#[test]
fn fcfs_keeps_arrival_order_within_queue() {
    // With FCFS + a single executor and batching bounded by adjacency,
    // completions follow arrival order per stage-0 requests.
    let device = devices::numa_rtx3080ti();
    let (model, perf, stream) = context(0.03, &device);
    let r = Engine::new(&device, &model, &perf, &samba_coe(&device))
        .unwrap()
        .run(&stream);
    assert_eq!(r.completed, stream.len());
    // Sojourn latencies grow roughly with queue position under FCFS on
    // a switch-bound backlog: the last job waits longer than the first.
    let first = r.job_latencies.first().unwrap();
    let last = r.job_latencies.last().unwrap();
    assert!(last > first);
}

#[test]
fn suite_runs_all_five_systems() {
    let device = devices::numa_rtx3080ti();
    let task = TaskSpec::a1().scaled(0.06);
    let model = task.build_model().unwrap();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let sample = task.sample(80).stream(&model);
    let (systems, tuned) =
        coserve::baselines::suite::evaluation_suite(&device, &model, &perf, &sample);
    assert_eq!(
        systems.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        [
            "Samba-CoE",
            "Samba-CoE FIFO",
            "Samba-CoE Parallel",
            "CoServe Best",
            "CoServe Casual",
        ]
    );
    assert!(!tuned.executor_trials.is_empty());
    let stream = task.stream(&model);
    for config in &systems {
        let r = Engine::new(&device, &model, &perf, config)
            .unwrap()
            .run(&stream);
        assert_eq!(r.completed, stream.len(), "{} dropped jobs", config.name);
    }
}
