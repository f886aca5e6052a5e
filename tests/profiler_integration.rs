//! Offline-phase integration: the profiler's measurements must be good
//! enough for the scheduler's predictions, and the autotuner must
//! produce servable configurations.

use coserve::core::autotune;
use coserve::prelude::*;

#[test]
fn profiled_kb_predicts_ground_truth_within_tolerance() {
    let task = TaskSpec::a1().scaled(0.01);
    let model = task.build_model().unwrap();
    for device in devices::paper_devices() {
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        for arch in model.archs() {
            for proc in ProcessorKind::ALL {
                let entry = perf.expect_entry(arch.id(), proc);
                let kernel = device.kernel(arch.id(), proc).unwrap();
                // Within the linear (pre-saturation) region the fitted
                // prediction tracks ground truth to a few percent.
                for n in [1u32, 2, entry.max_batch.min(4)] {
                    let predicted = entry.predicted_latency(n).as_millis_f64();
                    let actual = kernel.latency.latency_ms(n);
                    let rel = (predicted - actual).abs() / actual;
                    assert!(
                        rel < 0.10,
                        "{} {} {proc} n={n}: predicted {predicted:.2} vs {actual:.2}",
                        device.name(),
                        arch.name()
                    );
                }
            }
        }
    }
}

#[test]
fn empirical_usage_matches_declared_on_large_sample() {
    let task = TaskSpec::a1();
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let sample = task.sample(5_000).stream(&model);
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Empirical(&sample));
    // Compare the top-10 ranking: the heavy hitters must agree.
    let declared: Vec<ExpertId> = model.experts_by_usage().into_iter().take(10).collect();
    let estimated: Vec<ExpertId> = perf.experts_by_usage().iter().copied().take(10).collect();
    let overlap = declared.iter().filter(|e| estimated.contains(e)).count();
    assert!(
        overlap >= 7,
        "top-10 overlap only {overlap}: {declared:?} vs {estimated:?}"
    );
}

#[test]
fn usage_cdf_matches_figure_11_shape() {
    let task = TaskSpec::a1().scaled(0.01);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let cdf = autotune::UsageCdf::from_perf(&perf);
    let c35 = cdf.coverage(35);
    assert!(
        (0.45..0.75).contains(&c35),
        "top-35 coverage {c35:.3} outside Figure 11 band"
    );
}

#[test]
fn window_search_result_is_servable_and_in_range() {
    let task = TaskSpec::a1().scaled(0.06);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let sample = task.sample(100).stream(&model);
    let base = presets::coserve(&device);
    let result = autotune::window_search(&device, &model, &perf, &base, &sample);
    assert!(result.chosen >= 1);
    assert!(result.chosen <= model.num_experts());
    // The chosen count yields a servable config that completes work.
    let config = presets::coserve_with(&device, "win", 3, 1, Some(result.chosen));
    let report = Engine::new(&device, &model, &perf, &config)
        .unwrap()
        .run(&sample);
    assert_eq!(report.completed, sample.len());
}

#[test]
fn tuned_best_is_at_least_as_good_as_casual_on_sample() {
    let task = TaskSpec::a1().scaled(0.1);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let sample = task.sample(150).stream(&model);
    let tuned = autotune::tune(&device, &model, &perf, &sample);
    let best = Engine::new(&device, &model, &perf, &tuned.config)
        .unwrap()
        .run(&sample);
    let casual = Engine::new(&device, &model, &perf, &presets::coserve_casual(&device))
        .unwrap()
        .run(&sample);
    assert!(
        best.throughput_ips() >= casual.throughput_ips() * 0.999,
        "Best {:.2} below Casual {:.2} on the tuning sample",
        best.throughput_ips(),
        casual.throughput_ips()
    );
}

#[test]
fn memory_layout_never_exceeds_device_memory() {
    let task = TaskSpec::a1().scaled(0.01);
    let model = task.build_model().unwrap();
    for device in devices::paper_devices() {
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        for (g, c) in [(1usize, 0usize), (3, 1), (5, 2)] {
            let mut builder = SystemConfig::builder("layout").gpu_executors(g);
            if c > 0 {
                builder = builder.cpu_executors(c);
            }
            let config = builder.build();
            let layout = plan_memory(&device, &model, &perf, &config);
            let gpu_total: Bytes = config
                .executors
                .iter()
                .zip(&layout.executors)
                .filter(|(&p, _)| p == ProcessorKind::Gpu)
                .map(|(_, m)| m.pool_capacity + m.workspace)
                .sum();
            assert!(
                gpu_total <= device.gpu_usable(),
                "{}: {g}G+{c}C GPU layout {gpu_total} exceeds usable {}",
                device.name(),
                device.gpu_usable()
            );
            if device.has_staging_cache() {
                let cpu_total: Bytes = config
                    .executors
                    .iter()
                    .zip(&layout.executors)
                    .filter(|(&p, _)| p == ProcessorKind::Cpu)
                    .map(|(_, m)| m.pool_capacity + m.workspace)
                    .sum();
                assert!(cpu_total + layout.cache <= device.cpu_usable());
            }
        }
    }
}
